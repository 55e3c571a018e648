// Host-side PCIe link model.
//
// Streams the workload words into FIFO_IN at a wall-clock-constant rate
// (converted to words-per-cycle at the configured fabric clock — this is
// what makes high clock frequencies interface-bound, the paper's §V
// observation) and drains answers from FIFO_OUT.
//
// The model upload streams as a count: `model_words` identical kModelWord
// words precede the materialised words, so a cold run holds only its
// stories in memory. HOST_LINK heads the coupled chain of the
// event-driven clock (sim/module.hpp): with CONTROL and INPUT&WRITE
// declared behind it, a model upload (upload_window()) and a story's
// data words (story_window()) each skip as one event.
//
// The link credit counts words in units of 1/clock_hz: tick() adds the
// word rate in words/s each cycle, and a push spends clock_hz. Clocks
// and rates are whole numbers (validate_config), so the credit is exact,
// and the add on which it next reaches a word is one division away.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "accel/config.hpp"
#include "accel/state.hpp"
#include "accel/stream.hpp"
#include "sim/fifo.hpp"
#include "sim/module.hpp"

namespace mann::accel {

class HostLinkModule final : public sim::Module {
 public:
  struct Answer {
    std::int32_t prediction = -1;
    sim::Cycle cycle = 0;  ///< when the host observed the result
  };

  /// What the last skip() moved through the coupled chain, for CONTROL's
  /// and INPUT&WRITE's skip() to account their shares: run_events skips
  /// each of them right after the module before it.
  struct Streamed {
    /// An upload window: CONTROL stored one model word a cycle.
    bool upload = false;
    /// A story window: the data words pushed, at most one a cycle, each
    /// forwarded by CONTROL and processed by INPUT&WRITE on its push
    /// cycle.
    std::span<const StreamWord> words;
    /// Cycles of the skip after the one that pushed the last of `words`.
    sim::Cycle since_last_push = 0;
  };

  /// Streams `model_words` kModelWord words, then `words`.
  HostLinkModule(const AccelConfig& config, std::size_t model_words,
                 std::vector<StreamWord> words,
                 sim::Fifo<StreamWord>& fifo_in,
                 sim::Fifo<std::int32_t>& fifo_out);

  void tick();
  /// The next answer drain, credit crossing a word (a push attempt, the
  /// story-latency charge) or the end of a DMA delay followed by that
  /// crossing. A synchronous host waiting on an answer is idle: its
  /// credit only cycles, and the answer arrives through FIFO_OUT. Inside
  /// a window, the window's end.
  [[nodiscard]] std::optional<sim::Cycle> next_activity(sim::Cycle now) const;
  /// Inside a window accounts HOST_LINK's share of it and records in
  /// streamed() what crossed; elsewhere only DMA delay and credit move.
  void skip(sim::Cycle cycles);

  /// Declares the coupled drain: CONTROL, ticked right after this module
  /// on the same clock, pops FIFO_IN, one model word a cycle. ControlModule
  /// calls it when constructed with this link; without it no window ever
  /// opens, so a link driven on its own keeps the plain per-module
  /// contract. Throws std::invalid_argument unless `drained` is this
  /// link's FIFO_IN.
  void couple_drain(const sim::Fifo<StreamWord>& drained);
  /// Declares the rest of the chain: CONTROL forwards each story data word
  /// of FIFO_IN into `cmd_fifo` while `state.story_active`, and
  /// INPUT&WRITE, ticked right after CONTROL, pops it on the same cycle
  /// once its `countdown` is 0; each word costs it one cycle, a sentence
  /// flush `flush_cycles` more. ControlModule forwards it from
  /// InputWriteModule. Story windows open only when
  /// ⌊clock_hz / words_per_second⌋ > `flush_cycles`: then consecutive
  /// words land at least 1 + `flush_cycles` cycles apart, so a flush ends
  /// before the next word lands.
  void couple_sink(const AcceleratorState& state,
                   const sim::Fifo<StreamWord>& cmd_fifo,
                   const sim::Cycle& countdown, sim::Cycle flush_cycles);

  /// Cycles of model upload ahead of this cycle boundary that skip as one
  /// event, 0 when none. It opens, from state HOST_LINK and CONTROL both
  /// see, with:
  ///   - a coupled drain and a model rate above 1 word/cycle;
  ///   - FIFO_IN holding at least one word and not full, so CONTROL has a
  ///     model word to pop at the cycle boundary;
  ///   - the next word a model word, and not the last one.
  /// Then every cycle the credit gains a rate's worth, HOST_LINK pushes
  /// model words while the credit holds one and FIFO_IN has room, refusing
  /// one more push when the credit outlasts the room, and CONTROL pops
  /// one. Each cycle pushes at least one word, so FIFO_IN fills from its
  /// level to one word short of full and then stays there: after t
  /// cycles the pushes are min(⌊(credit + t·rate)/clock⌋, room - 1 + t).
  /// The window ends before the cycle that would push the last model
  /// word: that push is ticked, since the story stream's kStoryStart logic
  /// follows it in the same tick.
  ///
  /// HOST_LINK and CONTROL both report now + upload_window() from
  /// next_activity and account their own share in skip(): HOST_LINK the
  /// pushes, position, credit, busy and link-active cycles, the refused
  /// pushes as stalls, and FIFO_IN's push/pop/reject stats and peak (the
  /// last cycle's level before its pop); CONTROL the model words seen,
  /// BRAM writes and busy cycles.
  [[nodiscard]] sim::Cycle upload_window() const noexcept;

  /// Cycles of a story's data words ahead of this cycle boundary that
  /// skip as one event, 0 when none. It opens, with the whole chain
  /// coupled and the spacing rule of couple_sink() holding, at a boundary
  /// where:
  ///   - FIFO_IN, FIFO_OUT and CMD_FIFO are empty and no DMA delay is
  ///     pending;
  ///   - the credit holds less than one word, so at most one word lands a
  ///     cycle;
  ///   - the next word is a data word other than kEndOfStory, and
  ///     story_active is set;
  ///   - INPUT&WRITE's countdown ends before the next push.
  /// Then each word HOST_LINK pushes crosses FIFO_IN and CMD_FIFO on its
  /// push cycle, and INPUT&WRITE processes it there. The window ends at
  /// the push of the story's kEndOfStory, which is ticked.
  ///
  /// HOST_LINK reports now + story_window() from next_activity (CONTROL
  /// and INPUT&WRITE, with empty inputs, are idle) and each skip()
  /// accounts its own share: HOST_LINK its pushes, credit, busy and
  /// link-active cycles and FIFO_IN's stats; CONTROL its busy cycles and
  /// CMD_FIFO's stats; INPUT&WRITE each word's ops, the slots and flags it
  /// sets and its busy cycles, the last word's countdown cut by the
  /// skip's end.
  ///
  /// Any prefix of either window is exact, so a watchdog clamp or another
  /// module's earlier activity may cut it short.
  [[nodiscard]] sim::Cycle story_window() const noexcept;

  /// What the last skip() moved through the chain.
  [[nodiscard]] const Streamed& streamed() const noexcept { return streamed_; }
  /// The model words this link uploads, and those not yet pushed.
  [[nodiscard]] std::size_t model_words() const noexcept {
    return model_words_;
  }
  [[nodiscard]] std::size_t model_words_left() const noexcept {
    return model_words_ - std::min(position_, model_words_);
  }

  [[nodiscard]] bool all_words_sent() const noexcept {
    return position_ >= words_total();
  }
  [[nodiscard]] const std::vector<Answer>& answers() const noexcept {
    return answers_;
  }
  /// Every word on the wire, the model upload included.
  [[nodiscard]] std::size_t words_total() const noexcept {
    return model_words_ + words_.size();
  }
  /// Cycles during which the link was actively transferring or in DMA
  /// setup — the I/O-bound share of the run.
  [[nodiscard]] sim::Cycle link_active_cycles() const noexcept {
    return link_active_cycles_;
  }

 private:
  /// Words in units of 1/clock_hz. With rates at most 2^53 words/s, a
  /// run of up to 2^64 cycles cannot wrap it.
  using Credit = unsigned __int128;

  /// The word at position_ (position_ < words_total()).
  [[nodiscard]] StreamWord next_word() const noexcept {
    return position_ < model_words_ ? StreamWord{StreamOp::kModelWord, 0}
                                    : words_[position_ - model_words_];
  }
  /// Credit added per cycle while the word at position_ waits.
  [[nodiscard]] std::uint64_t current_rate() const noexcept {
    return next_word().op == StreamOp::kModelWord ? model_words_per_second_
                                                  : words_per_second_;
  }
  /// The synchronous host holds the next story until the previous
  /// answer has arrived.
  [[nodiscard]] bool awaiting_answer() const noexcept {
    return synchronous_ && next_word().op == StreamOp::kStoryStart &&
           answers_.size() < stories_sent_;
  }
  /// Adds of `rate` to a credit of `from` up to the one that brings it to
  /// `target`, that one included (1 when `from` already holds it); kNever
  /// if none does.
  [[nodiscard]] static sim::Cycle adds_to(Credit from, Credit target,
                                          std::uint64_t rate) noexcept {
    if (from >= target) {
      return 1;
    }
    if (rate == 0) {
      return sim::kNever;
    }
    return static_cast<sim::Cycle>((target - from + rate - 1) / rate);
  }
  /// Adds of `rate` to a credit of `from` up to the one that holds a
  /// word.
  [[nodiscard]] sim::Cycle adds_to_word(Credit from,
                                        std::uint64_t rate) const noexcept {
    return adds_to(from, clock_hz_, rate);
  }
  /// Adds `adds` skipped ticks' credit, as tick() would.
  void advance_credit(sim::Cycle adds);
  /// HOST_LINK's share of `cycles` cycles of an upload window.
  void skip_upload(sim::Cycle cycles);
  /// HOST_LINK's share of `cycles` cycles of a story window.
  void skip_story(sim::Cycle cycles);
  /// Index in words_ of the kEndOfStory that ends the story starting at
  /// `start`, or words_.size() when a word other than a story data word
  /// comes first.
  [[nodiscard]] std::size_t find_story_end(std::size_t start) const noexcept;

  std::size_t model_words_;
  std::vector<StreamWord> words_;
  sim::Fifo<StreamWord>& fifo_in_;
  sim::Fifo<std::int32_t>& fifo_out_;
  std::uint64_t clock_hz_ = 0;
  std::uint64_t words_per_second_ = 0;
  std::uint64_t model_words_per_second_ = 0;
  sim::Cycle story_latency_cycles_ = 0;
  sim::Cycle result_latency_cycles_ = 0;

  std::size_t position_ = 0;
  Credit credit_ = 0;
  sim::Cycle delay_ = 0;
  bool latency_charged_ = false;
  bool synchronous_;
  bool drained_ = false;  ///< couple_drain() was called
  // What couple_sink() declared; null until then, and when the spacing
  // rule fails.
  const AcceleratorState* sink_state_ = nullptr;
  const sim::Fifo<StreamWord>* cmd_fifo_ = nullptr;
  const sim::Cycle* sink_countdown_ = nullptr;
  std::size_t stories_sent_ = 0;  ///< kEndOfStory words pushed
  /// find_story_end() of the kStoryStart pushed last.
  std::size_t story_end_ = 0;
  sim::Cycle cycle_ = 0;
  sim::Cycle link_active_cycles_ = 0;
  std::vector<Answer> answers_;
  Streamed streamed_;
};

inline void HostLinkModule::tick() {
  ++cycle_;
  // Drain one answer per cycle from FIFO_OUT; the host observes it after
  // the readback latency.
  if (const auto answer = fifo_out_.try_pop()) {
    answers_.push_back({*answer, cycle_ + result_latency_cycles_});
  }

  if (position_ >= words_total()) {
    return;  // everything sent; only draining answers now
  }
  if (delay_ > 0) {
    // DMA/doorbell setup: the link is occupied but no words flow.
    --delay_;
    credit_ = 0;
    ++link_active_cycles_;
    mark_busy();
    return;
  }

  // Model upload is bulk DMA; the inference stream is word-granular.
  credit_ += current_rate();
  bool pushed = false;
  while (credit_ >= clock_hz_ && position_ < words_total()) {
    const StreamWord word = next_word();
    if (word.op == StreamOp::kStoryStart) {
      // Request/response host: wait for the previous story's answer
      // before streaming the next request.
      if (awaiting_answer()) {
        credit_ = 0;
        break;
      }
      if (!latency_charged_ && story_latency_cycles_ > 0) {
        delay_ = story_latency_cycles_;
        latency_charged_ = true;
        break;
      }
    }
    if (!fifo_in_.try_push(word)) {
      mark_stalled();
      break;
    }
    if (word.op == StreamOp::kStoryStart) {
      latency_charged_ = false;
      story_end_ = find_story_end(position_ - model_words_);
    }
    if (word.op == StreamOp::kEndOfStory) {
      ++stories_sent_;
    }
    credit_ -= clock_hz_;
    ++position_;
    pushed = true;
  }
  if (pushed) {
    ++link_active_cycles_;
    mark_busy();
  }
}

inline sim::Cycle HostLinkModule::upload_window() const noexcept {
  // No DMA delay can be pending: one is charged only at a story word. An
  // answer in FIFO_OUT drains beside the upload; next_activity reports it.
  const std::size_t level = fifo_in_.size();
  if (!drained_ || model_words_per_second_ <= clock_hz_ || level == 0 ||
      level >= fifo_in_.capacity() || position_ + 1 >= model_words_) {
    return 0;
  }
  // The pushes, at least one more each cycle, stay short of the last
  // model word's while either bound does.
  const std::uint64_t left = model_words_ - 1 - position_;
  const std::size_t room = fifo_in_.capacity() - level;
  const sim::Cycle by_credit =
      adds_to(credit_, Credit{left + 1} * clock_hz_,
              model_words_per_second_) -
      1;
  const sim::Cycle by_room = left + 1 > room ? left + 1 - room : 0;
  return std::max(by_credit, by_room);
}

inline sim::Cycle HostLinkModule::story_window() const noexcept {
  if (sink_state_ == nullptr || !sink_state_->story_active || delay_ > 0 ||
      credit_ >= clock_hz_ || !fifo_in_.empty() || !fifo_out_.empty() ||
      !cmd_fifo_->empty() || position_ < model_words_) {
    return 0;
  }
  // The next word is a data word of the current story, short of its
  // kEndOfStory.
  const std::size_t at = position_ - model_words_;
  if (at >= story_end_ || story_end_ >= words_.size() ||
      *sink_countdown_ >= adds_to_word(credit_, words_per_second_)) {
    return 0;
  }
  // The ticked push is the kEndOfStory's, the (words + 1)-th from here.
  const std::size_t words = story_end_ - at;
  return adds_to(credit_, Credit{words + 1} * clock_hz_, words_per_second_) -
         1;
}

inline std::optional<sim::Cycle> HostLinkModule::next_activity(
    sim::Cycle now) const {
  if (!fifo_out_.empty()) {
    return now;  // an answer drains on this tick
  }
  if (position_ >= words_total() || awaiting_answer()) {
    return sim::kNever;  // the next answer in FIFO_OUT wakes us
  }
  if (const sim::Cycle window = upload_window(); window > 0) {
    return now + window;
  }
  if (const sim::Cycle window = story_window(); window > 0) {
    return now + window;
  }
  // From where the DMA delay (if any) leaves the credit, the first tick
  // whose add reaches a word tries a push or charges the story latency.
  const sim::Cycle adds = adds_to_word(delay_ > 0 ? 0 : credit_,
                                       current_rate());
  if (adds == sim::kNever) {
    return sim::kNever;  // a stalled link: only the watchdog ends it
  }
  return now + delay_ + adds - 1;
}

inline void HostLinkModule::skip(sim::Cycle cycles) {
  streamed_ = {};
  if (upload_window() > 0) {
    skip_upload(cycles);
    return;
  }
  if (story_window() > 0) {
    skip_story(cycles);
    return;
  }
  cycle_ += cycles;
  if (position_ >= words_total()) {
    return;
  }
  const sim::Cycle setup = std::min(cycles, delay_);
  if (setup > 0) {
    delay_ -= setup;
    credit_ = 0;
    link_active_cycles_ += setup;
    mark_busy(setup);
    cycles -= setup;
  }
  advance_credit(cycles);
}

inline void HostLinkModule::advance_credit(sim::Cycle adds) {
  // Short of a word the adds just sum. Only a host awaiting an answer can
  // reach one here, and its tick resets the credit to 0, so from then on
  // the credit repeats the period from 0.
  const std::uint64_t rate = current_rate();
  if (const sim::Cycle first = adds_to_word(credit_, rate); adds >= first) {
    adds = (adds - first) % adds_to_word(0, rate);
    credit_ = 0;
  }
  credit_ += Credit{adds} * rate;
}

}  // namespace mann::accel
