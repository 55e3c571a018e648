#include "serve/scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "accel/accelerator.hpp"
#include "obs/trace.hpp"
#include "serve_test_util.hpp"

namespace mann::serve {
namespace {

using testing::make_request;
using testing::tiny_program;
using testing::tiny_stories;

std::vector<accel::Accelerator> task_devices(std::size_t tasks) {
  accel::AccelConfig config;
  std::vector<accel::Accelerator> devices;
  devices.reserve(tasks);
  for (std::size_t t = 0; t < tasks; ++t) {
    devices.emplace_back(config, tiny_program(7 + t));
  }
  return devices;
}

Batch make_batch(std::size_t task,
                 const std::vector<data::EncodedStory>& stories,
                 std::size_t count, sim::Cycle enqueue,
                 RequestId first_id = 0) {
  Batch batch;
  batch.task = task;
  for (std::size_t i = 0; i < count; ++i) {
    batch.requests.push_back(
        make_request(first_id + i, task, stories[i], enqueue));
    batch.stories.push_back(&stories[i]);
  }
  return batch;
}

TEST(Scheduler, RejectsBadConstruction) {
  EXPECT_THROW(Scheduler({.devices = 0}, task_devices(1)),
               std::invalid_argument);
  EXPECT_THROW(Scheduler({.devices = 1}, {}), std::invalid_argument);
}

TEST(Scheduler, RunsOneBatchToCompletion) {
  const auto stories = tiny_stories(4);
  Scheduler scheduler({.devices = 1}, task_devices(1));
  ASSERT_TRUE(scheduler.submit(make_batch(0, stories, 4, 100)));
  EXPECT_EQ(scheduler.pending_batches(), 1U);

  scheduler.step(200);
  EXPECT_EQ(scheduler.pending_batches(), 0U);
  EXPECT_EQ(scheduler.in_flight(), 4U);
  EXPECT_FALSE(scheduler.idle());

  // Nothing completes before the first answer reaches the host.
  const sim::Cycle completion = scheduler.next_completion();
  ASSERT_NE(completion, sim::kNever);
  ASSERT_GT(completion, 200U);
  EXPECT_TRUE(scheduler.collect(completion - 1).empty());

  // The device frees at busy_cycles, but the last answer is still riding
  // the host readback latency then — collect at the horizon gets all.
  auto done = scheduler.collect(sim::kNever - 1);
  EXPECT_EQ(done.size(), 4U);
  EXPECT_TRUE(scheduler.idle());
  for (const InferenceResponse& response : done) {
    EXPECT_EQ(response.device, 0U);
    EXPECT_EQ(response.batch_size, 4U);
    EXPECT_EQ(response.enqueue_cycle, 100U);
    EXPECT_EQ(response.dispatch_cycle, 200U);
    EXPECT_GT(response.complete_cycle, response.dispatch_cycle);
  }
}

TEST(Scheduler, DeterministicGivenSameInputs) {
  const auto stories = tiny_stories(6);
  auto run_once = [&] {
    Scheduler scheduler({.devices = 2}, task_devices(2));
    EXPECT_TRUE(scheduler.submit(make_batch(0, stories, 3, 0, 0)));
    EXPECT_TRUE(scheduler.submit(make_batch(1, stories, 3, 0, 3)));
    scheduler.step(0);
    std::vector<InferenceResponse> all = scheduler.collect(sim::kNever - 1);
    std::sort(all.begin(), all.end(),
              [](const auto& a, const auto& b) { return a.id < b.id; });
    return all;
  };
  const auto first = run_once();
  const auto second = run_once();
  ASSERT_EQ(first.size(), 6U);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].device, second[i].device);
    EXPECT_EQ(first[i].complete_cycle, second[i].complete_cycle);
    EXPECT_EQ(first[i].prediction, second[i].prediction);
  }
}

TEST(Scheduler, CollectKeepsDispatchOrderWhenCompletionsInterleave) {
  // A six-story batch and a one-story batch start together on two
  // devices, so the short batch's answer lands among the long one's and
  // completions arrive out of dispatch order. Each collect must hand
  // out what completed in dispatch order, and what stays in flight must
  // keep that order for the next collect.
  const auto stories = tiny_stories(6);
  const auto dispatch = [&](Scheduler& scheduler) {
    ASSERT_TRUE(scheduler.submit(make_batch(0, stories, 6, 0, 0)));
    ASSERT_TRUE(scheduler.submit(make_batch(1, stories, 1, 0, 6)));
    scheduler.step(0);
    ASSERT_EQ(scheduler.in_flight(), 7U);
  };
  Scheduler reference({.devices = 2}, task_devices(2));
  dispatch(reference);
  const std::vector<InferenceResponse> all =
      reference.collect(sim::kNever - 1);
  ASSERT_EQ(all.size(), 7U);
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i].id, i);  // dispatch order
  }
  ASSERT_LT(all[6].complete_cycle, all[1].complete_cycle);

  const auto ids = [](const std::vector<InferenceResponse>& responses) {
    std::vector<RequestId> out;
    for (const InferenceResponse& r : responses) {
      out.push_back(r.id);
    }
    return out;
  };
  // Cut at every completion: what collect returns, then everything
  // left, must each be in dispatch order.
  for (const InferenceResponse& cut : all) {
    const sim::Cycle now = cut.complete_cycle;
    std::vector<RequestId> done;
    std::vector<RequestId> left;
    for (const InferenceResponse& r : all) {
      (r.complete_cycle <= now ? done : left).push_back(r.id);
    }
    Scheduler scheduler({.devices = 2}, task_devices(2));
    dispatch(scheduler);
    EXPECT_EQ(ids(scheduler.collect(now)), done) << "collect(" << now << ")";
    EXPECT_EQ(scheduler.in_flight(), left.size());
    EXPECT_EQ(ids(scheduler.collect(sim::kNever - 1)), left)
        << "after collect(" << now << ")";
    EXPECT_TRUE(scheduler.idle());
  }
}

/// What collect() and next_completion() did before the in-flight
/// responses were kept by completion cycle: one scan over all of them, in
/// dispatch order.
struct InFlightScan {
  std::vector<std::pair<RequestId, sim::Cycle>> in_flight;  ///< (id, cycle)

  std::vector<std::pair<RequestId, sim::Cycle>> collect(sim::Cycle now) {
    std::vector<std::pair<RequestId, sim::Cycle>> done;
    std::vector<std::pair<RequestId, sim::Cycle>> kept;
    for (const auto& r : in_flight) {
      (r.second <= now ? done : kept).push_back(r);
    }
    in_flight = std::move(kept);
    return done;
  }

  [[nodiscard]] sim::Cycle next_completion() const {
    sim::Cycle next = sim::kNever;
    for (const auto& r : in_flight) {
      next = std::min(next, r.second);
    }
    return next;
  }
};

TEST(Scheduler, InFlightHeapMatchesLinearScan) {
  // Seeded batches of 1-6 stories for three tasks and three tenants, on
  // three devices, so completions interleave across devices; the clock
  // moves to the next completion, past it or short of it. The trace's
  // service spans, in record order, give every dispatch and its
  // completion cycle to the scan.
  const auto stories = tiny_stories(6);
  std::vector<TenantConfig> tenants(3);
  tenants[1].weight = 2.0;
  tenants[2].weight = 3.0;
  for (const SchedulerPolicy policy :
       {SchedulerPolicy::kFifo, SchedulerPolicy::kEdf, SchedulerPolicy::kWfq}) {
    SCOPED_TRACE(scheduler_policy_name(policy));
    obs::TraceRecorder trace;
    Scheduler scheduler({.devices = 3, .policy = policy, .trace = &trace},
                        task_devices(3), tenants);
    InFlightScan scan;
    std::uint64_t traced = 0;  // trace events already read
    std::mt19937_64 rng(0x1F11E5 + static_cast<unsigned>(policy));
    std::uniform_int_distribution<int> coin(0, 3);
    RequestId next_id = 0;
    sim::Cycle now = 0;
    std::size_t collected = 0;
    for (int round = 0; round < 400; ++round) {
      for (int b = coin(rng) % 3; b > 0 && round < 300; --b) {
        const std::size_t task = rng() % 3;
        const auto tenant = static_cast<TenantId>(rng() % 3);
        const std::size_t count = 1 + rng() % 6;
        Batch batch = make_batch(task, stories, count, now, next_id);
        batch.tenant = tenant;
        batch.deadline = now + 1'000 + rng() % 200'000;
        for (InferenceRequest& request : batch.requests) {
          request.tenant = tenant;
          request.deadline_cycle = batch.deadline;
        }
        next_id += count;
        ASSERT_TRUE(scheduler.submit(std::move(batch)));
      }
      scheduler.step(now);
      std::vector<obs::TraceEvent> events = trace.merged();
      std::sort(events.begin(), events.end(),
                [](const auto& a, const auto& b) { return a.seq < b.seq; });
      for (const obs::TraceEvent& e : events) {
        if (e.seq >= traced && e.phase == obs::Phase::kAsyncEnd &&
            std::string_view(e.name) == "service") {
          scan.in_flight.emplace_back(e.id, e.ts);
        }
      }
      traced = events.empty() ? traced : events.back().seq + 1;
      ASSERT_EQ(scheduler.in_flight(), scan.in_flight.size());
      ASSERT_EQ(scheduler.next_completion(), scan.next_completion())
          << "round " << round;
      std::vector<std::pair<RequestId, sim::Cycle>> got;
      for (const InferenceResponse& r : scheduler.collect(now)) {
        got.emplace_back(r.id, r.complete_cycle);
      }
      ASSERT_EQ(got, scan.collect(now)) << "round " << round;
      collected += got.size();
      const sim::Cycle next = scheduler.next_completion();
      switch (coin(rng)) {
        case 0:
          now += 1 + rng() % 20'000;  // may stop short of the next one
          break;
        case 1:
          now = next == sim::kNever ? now + 1 : next;
          break;
        default:
          now = next == sim::kNever ? now + 1 : next + rng() % 50'000;
          break;
      }
    }
    EXPECT_EQ(collected + scheduler.in_flight(), next_id);
    EXPECT_GT(collected, next_id / 2);
  }
}

TEST(Scheduler, WarmDeviceSkipsModelUpload) {
  const auto stories = tiny_stories(2);
  Scheduler scheduler({.devices = 1}, task_devices(1));

  ASSERT_TRUE(scheduler.submit(make_batch(0, stories, 2, 0, 0)));
  scheduler.step(0);
  const sim::Cycle cold_cycles = scheduler.device_reports()[0].busy_cycles;
  (void)scheduler.collect(sim::kNever - 1);

  ASSERT_TRUE(scheduler.submit(make_batch(0, stories, 2, 0, 2)));
  scheduler.step(cold_cycles);
  const sim::Cycle warm_cycles =
      scheduler.device_reports()[0].busy_cycles - cold_cycles;

  // Same stories, same program: the warm run must be strictly cheaper
  // (no model words on the wire) and must not re-count an upload.
  EXPECT_LT(warm_cycles, cold_cycles);
  EXPECT_EQ(scheduler.device_reports()[0].model_uploads, 1U);
  EXPECT_EQ(scheduler.total_model_uploads(), 1U);
}

TEST(Scheduler, OverflowPoolAbsorbsBurst) {
  const auto stories = tiny_stories(8);
  // 1 dedicated + 2 overflow devices, single task.
  Scheduler scheduler({.devices = 3, .dedicated_devices = 1},
                      task_devices(1));
  for (std::size_t b = 0; b < 3; ++b) {
    ASSERT_TRUE(scheduler.submit(make_batch(0, stories, 2, 0, b * 2)));
  }
  scheduler.step(0);
  // All three batches run concurrently: home + both overflow slots.
  EXPECT_EQ(scheduler.pending_batches(), 0U);
  const auto reports = scheduler.device_reports();
  EXPECT_EQ(reports[0].batches, 1U);
  EXPECT_EQ(reports[1].batches, 1U);
  EXPECT_EQ(reports[2].batches, 1U);
}

TEST(Scheduler, NoRequestDroppedUnderBurstLoad) {
  const auto stories = tiny_stories(4);
  Scheduler scheduler({.devices = 2, .queue_capacity = 64},
                      task_devices(1));
  // 32 batches of 4 slam in at cycle 0 — far beyond pool capacity.
  const std::size_t batches = 32;
  for (std::size_t b = 0; b < batches; ++b) {
    ASSERT_TRUE(scheduler.submit(make_batch(0, stories, 4, 0, b * 4)));
  }

  // Pump the pool until everything drains, stepping at completions.
  std::vector<InferenceResponse> all;
  sim::Cycle now = 0;
  for (int guard = 0; guard < 10'000 && !scheduler.idle(); ++guard) {
    scheduler.step(now);
    const sim::Cycle next = scheduler.next_completion();
    ASSERT_NE(next, sim::kNever);
    now = next;
    for (auto& r : scheduler.collect(now)) {
      all.push_back(r);
    }
  }

  // Every request answered exactly once.
  ASSERT_EQ(all.size(), batches * 4);
  std::vector<RequestId> ids;
  ids.reserve(all.size());
  for (const auto& r : all) {
    ids.push_back(r.id);
  }
  std::sort(ids.begin(), ids.end());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(ids[i], i);
  }
  // Both devices pulled weight.
  const auto reports = scheduler.device_reports();
  EXPECT_GT(reports[0].batches, 0U);
  EXPECT_GT(reports[1].batches, 0U);
  EXPECT_EQ(reports[0].batches + reports[1].batches, batches);
}

TEST(Scheduler, BoundedQueueRejectsOverflow) {
  const auto stories = tiny_stories(1);
  Scheduler scheduler({.devices = 1, .queue_capacity = 2},
                      task_devices(1));
  EXPECT_TRUE(scheduler.submit(make_batch(0, stories, 1, 0, 0)));
  // Device free: first submit would dispatch on step, but without a step
  // the queue holds it. Fill to the bound.
  EXPECT_TRUE(scheduler.submit(make_batch(0, stories, 1, 0, 1)));
  EXPECT_FALSE(scheduler.has_capacity());
  EXPECT_FALSE(scheduler.submit(make_batch(0, stories, 1, 0, 2)));
}

Batch deadline_batch(std::size_t task,
                     const std::vector<data::EncodedStory>& stories,
                     std::size_t count, sim::Cycle enqueue,
                     sim::Cycle deadline, RequestId first_id) {
  Batch batch = make_batch(task, stories, count, enqueue, first_id);
  batch.deadline = deadline;
  for (InferenceRequest& request : batch.requests) {
    request.deadline_cycle = deadline;
  }
  return batch;
}

/// Pumps the scheduler from cycle `start` until idle, returning responses
/// in completion order (dispatch order is recoverable from dispatch_cycle).
std::vector<InferenceResponse> drain(Scheduler& scheduler,
                                     sim::Cycle start = 0) {
  std::vector<InferenceResponse> all;
  sim::Cycle now = start;
  for (int guard = 0; guard < 100'000 && !scheduler.idle(); ++guard) {
    scheduler.step(now);
    const sim::Cycle next = scheduler.next_completion();
    if (next == sim::kNever) {
      break;
    }
    now = next;
    for (auto& r : scheduler.collect(now)) {
      all.push_back(r);
    }
  }
  return all;
}

sim::Cycle dispatch_cycle_of(const std::vector<InferenceResponse>& all,
                             RequestId id) {
  for (const InferenceResponse& r : all) {
    if (r.id == id) {
      return r.dispatch_cycle;
    }
  }
  ADD_FAILURE() << "response " << id << " missing";
  return sim::kNever;
}

TEST(Scheduler, EdfDispatchesMostUrgentFirstUnderContention) {
  const auto stories = tiny_stories(2);
  // One device: all three batches contend for the same slot. Submission
  // order is the *reverse* of urgency.
  Scheduler scheduler({.devices = 1, .policy = SchedulerPolicy::kEdf},
                      task_devices(1));
  ASSERT_TRUE(
      scheduler.submit(deadline_batch(0, stories, 1, 0, 30'000'000, 0)));
  ASSERT_TRUE(
      scheduler.submit(deadline_batch(0, stories, 1, 0, 10'000'000, 1)));
  ASSERT_TRUE(
      scheduler.submit(deadline_batch(0, stories, 1, 0, 20'000'000, 2)));

  const auto all = drain(scheduler);
  ASSERT_EQ(all.size(), 3U);
  // Deadline order 1 < 2 < 0, not submit order.
  EXPECT_LT(dispatch_cycle_of(all, 1), dispatch_cycle_of(all, 2));
  EXPECT_LT(dispatch_cycle_of(all, 2), dispatch_cycle_of(all, 0));
  // Responses carry their deadline through to the metrics layer.
  for (const InferenceResponse& r : all) {
    EXPECT_NE(r.deadline_cycle, sim::kNever);
  }
}

TEST(Scheduler, FifoPolicyKeepsSubmitOrderDespiteDeadlines) {
  const auto stories = tiny_stories(2);
  Scheduler scheduler({.devices = 1, .policy = SchedulerPolicy::kFifo},
                      task_devices(1));
  ASSERT_TRUE(
      scheduler.submit(deadline_batch(0, stories, 1, 0, 30'000'000, 0)));
  ASSERT_TRUE(
      scheduler.submit(deadline_batch(0, stories, 1, 0, 10'000'000, 1)));

  const auto all = drain(scheduler);
  ASSERT_EQ(all.size(), 2U);
  EXPECT_LT(dispatch_cycle_of(all, 0), dispatch_cycle_of(all, 1));
}

TEST(Scheduler, EdfWithoutDeadlinesDegradesToSubmitOrder) {
  const auto stories = tiny_stories(2);
  Scheduler scheduler({.devices = 1, .policy = SchedulerPolicy::kEdf},
                      task_devices(1));
  ASSERT_TRUE(scheduler.submit(make_batch(0, stories, 1, 0, 0)));
  ASSERT_TRUE(scheduler.submit(make_batch(0, stories, 1, 0, 1)));
  const auto all = drain(scheduler);
  ASSERT_EQ(all.size(), 2U);
  EXPECT_LT(dispatch_cycle_of(all, 0), dispatch_cycle_of(all, 1));
}

TEST(Scheduler, WorkStealingDrainsOverloadedShard) {
  const auto stories = tiny_stories(4);
  // Fully sharded pool, one task: every batch homes on slot 0. Slot 1's
  // shard queue is empty, so it must steal — the tight deadlines make
  // waiting for slot 0 a guaranteed SLO miss, which satisfies the
  // steal-worthwhile gate.
  Scheduler scheduler({.devices = 2,
                       .dedicated_devices = 2,
                       .policy = SchedulerPolicy::kEdf},
                      task_devices(1));
  ASSERT_TRUE(scheduler.submit(deadline_batch(0, stories, 2, 0, 1'000, 0)));
  ASSERT_TRUE(scheduler.submit(deadline_batch(0, stories, 2, 0, 2'000, 2)));
  scheduler.step(0);
  EXPECT_EQ(scheduler.pending_batches(), 0U);
  const auto reports = scheduler.device_reports();
  EXPECT_EQ(reports[0].batches, 1U);
  EXPECT_EQ(reports[1].batches, 1U);
  EXPECT_EQ(reports[0].stolen_batches, 0U);
  EXPECT_EQ(reports[1].stolen_batches, 1U);
  EXPECT_EQ(scheduler.total_stolen_batches(), 1U);
}

TEST(Scheduler, StealingNeverLosesOrDuplicatesBatches) {
  const auto stories = tiny_stories(4);
  // 4 fully sharded slots, 2 tasks (homes 0 and 1; slots 2 and 3 can
  // only ever steal), EDF with interleaved deadlines.
  Scheduler scheduler({.devices = 4,
                       .dedicated_devices = 4,
                       .queue_capacity = 128,
                       .policy = SchedulerPolicy::kEdf},
                      task_devices(2));
  const std::size_t batches = 24;
  for (std::size_t b = 0; b < batches; ++b) {
    // Deadlines tight enough that waiting for a busy home shard is a
    // certain miss (keeps the steal-worthwhile gate open) but spread so
    // EDF genuinely reorders.
    const sim::Cycle deadline = 2'000 * ((b % 5) + 1);
    ASSERT_TRUE(scheduler.submit(
        deadline_batch(b % 2, stories, 4, 0, deadline, b * 4)));
  }

  const auto all = drain(scheduler);
  ASSERT_EQ(all.size(), batches * 4);
  std::vector<RequestId> ids;
  ids.reserve(all.size());
  for (const auto& r : all) {
    ids.push_back(r.id);
  }
  std::sort(ids.begin(), ids.end());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(ids[i], i);  // every request answered exactly once
  }
  const auto reports = scheduler.device_reports();
  std::uint64_t total = 0;
  for (const auto& d : reports) {
    total += d.batches;
  }
  EXPECT_EQ(total, batches);
  // The steal-only slots pulled real weight.
  EXPECT_GT(reports[2].batches + reports[3].batches, 0U);
  EXPECT_GT(scheduler.total_stolen_batches(), 0U);
}

TEST(Scheduler, LruEvictionDisplacesColdestResident) {
  const auto stories = tiny_stories(2);
  // Shared two-slot pool, three tasks: warm up task 0 on slot 0 and
  // task 1 on slot 1, re-touch task 0, then force task 2 to evict.
  Scheduler scheduler({.devices = 2, .policy = SchedulerPolicy::kEdf},
                      task_devices(3));
  ASSERT_TRUE(scheduler.submit(make_batch(0, stories, 1, 0, 0)));
  scheduler.step(0);
  (void)scheduler.collect(sim::kNever - 1);
  const sim::Cycle t1 = scheduler.next_slot_free(0) == sim::kNever
                            ? 1
                            : scheduler.next_slot_free(0);
  ASSERT_TRUE(scheduler.submit(make_batch(1, stories, 1, t1, 1)));
  scheduler.step(t1);
  (void)scheduler.collect(sim::kNever - 1);
  const sim::Cycle t2 = t1 + 1'000'000;
  ASSERT_TRUE(scheduler.submit(make_batch(0, stories, 1, t2, 2)));
  scheduler.step(t2);  // re-touches task 0 on its warm slot 0
  (void)scheduler.collect(sim::kNever - 1);

  const sim::Cycle t3 = t2 + 1'000'000;
  ASSERT_TRUE(scheduler.submit(make_batch(2, stories, 1, t3, 3)));
  scheduler.step(t3);
  (void)scheduler.collect(sim::kNever - 1);

  // Slot 1 (task 1, least recently dispatched) was the victim; slot 0
  // keeps the hot task 0 resident.
  const auto reports = scheduler.device_reports();
  EXPECT_EQ(reports[0].resident_task, 0U);
  EXPECT_EQ(reports[1].resident_task, 2U);
  EXPECT_EQ(reports[0].model_evictions, 0U);
  EXPECT_EQ(reports[1].model_evictions, 1U);
  EXPECT_EQ(scheduler.total_model_evictions(), 1U);
}

// ---- Slot eviction: the least recently dispatched resident goes ----

TEST(EvictionPolicy, LruEvictsLeastRecentlyDispatched) {
  const auto stories = tiny_stories(3);
  // Shared three-slot pool, four tasks: tasks 0/1/2 land on slots 0/1/2
  // at cycle 0, then task 2 and task 0 are re-touched, leaving the middle
  // slot (task 1) coldest when task 3 needs room.
  Scheduler scheduler({.devices = 3, .policy = SchedulerPolicy::kEdf},
                      task_devices(4));
  for (std::size_t task = 0; task < 3; ++task) {
    ASSERT_TRUE(scheduler.submit(make_batch(task, stories, 1, 0, task)));
  }
  scheduler.step(0);
  (void)scheduler.collect(sim::kNever - 1);
  ASSERT_TRUE(scheduler.submit(make_batch(2, stories, 1, 1'000'000, 3)));
  scheduler.step(1'000'000);
  (void)scheduler.collect(sim::kNever - 1);
  ASSERT_TRUE(scheduler.submit(make_batch(0, stories, 1, 2'000'000, 4)));
  scheduler.step(2'000'000);
  (void)scheduler.collect(sim::kNever - 1);

  ASSERT_TRUE(scheduler.submit(make_batch(3, stories, 1, 3'000'000, 5)));
  scheduler.step(3'000'000);
  const auto reports = scheduler.device_reports();
  EXPECT_EQ(reports[0].resident_task, 0U);
  EXPECT_EQ(reports[1].resident_task, 3U);
  EXPECT_EQ(reports[2].resident_task, 2U);
  EXPECT_EQ(reports[1].model_evictions, 1U);
  EXPECT_EQ(scheduler.total_model_evictions(), 1U);
}

TEST(EvictionPolicy, LruTieFallsToLowestSlot) {
  const auto stories = tiny_stories(2);
  // Residents last dispatched in the same cycle tie on recency: the
  // lower slot goes.
  Scheduler scheduler({.devices = 2, .policy = SchedulerPolicy::kEdf},
                      task_devices(3));
  ASSERT_TRUE(scheduler.submit(make_batch(0, stories, 1, 0, 0)));
  ASSERT_TRUE(scheduler.submit(make_batch(1, stories, 1, 0, 1)));
  scheduler.step(0);  // task 0 on slot 0, task 1 on slot 1, both at cycle 0
  (void)scheduler.collect(sim::kNever - 1);
  ASSERT_TRUE(scheduler.submit(make_batch(2, stories, 1, 1'000'000, 2)));
  scheduler.step(1'000'000);
  const auto reports = scheduler.device_reports();
  EXPECT_EQ(reports[0].resident_task, 2U);
  EXPECT_EQ(reports[1].resident_task, 1U);
  EXPECT_EQ(reports[0].model_evictions, 1U);
  EXPECT_EQ(scheduler.total_model_evictions(), 1U);
}

// ---- WFQ: weighted fair queueing across tenant lanes ----

/// A WFQ scheduler whose tenant t is weighted by tenants[t].weight (the
/// registry must outlive it).
Scheduler wfq_scheduler(SchedulerConfig config, std::size_t tasks,
                        const std::vector<TenantConfig>& tenants) {
  config.policy = SchedulerPolicy::kWfq;
  return Scheduler(config, task_devices(tasks), tenants);
}

/// One batch of `count` stories for `tenant`, ids from `first_id`.
Batch tenant_batch(std::size_t task, TenantId tenant,
                   const std::vector<data::EncodedStory>& stories,
                   std::size_t count, sim::Cycle enqueue, sim::Cycle deadline,
                   RequestId first_id) {
  Batch batch = deadline_batch(task, stories, count, enqueue, deadline,
                               first_id);
  batch.tenant = tenant;
  for (InferenceRequest& request : batch.requests) {
    request.tenant = tenant;
  }
  return batch;
}

/// The tenant of every single-story batch, in dispatch order.
std::vector<TenantId> tenants_in_dispatch_order(
    std::vector<InferenceResponse> all) {
  std::stable_sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
    return a.dispatch_cycle < b.dispatch_cycle;
  });
  std::vector<TenantId> order;
  for (const InferenceResponse& r : all) {
    order.push_back(r.tenant);
  }
  return order;
}

TEST(Scheduler, WfqSharesOneDeviceInProportionToWeight) {
  const auto stories = tiny_stories(1);
  std::vector<TenantConfig> tenants(2);
  tenants[0].weight = 2.0;
  Scheduler scheduler = wfq_scheduler({.devices = 1}, 1, tenants);
  // Six single-story batches per tenant, all queued before any dispatch.
  for (RequestId id = 0; id < 12; ++id) {
    ASSERT_TRUE(scheduler.submit(tenant_batch(
        0, static_cast<TenantId>(id % 2), stories, 1, 0, sim::kNever, id)));
  }
  // Tenant 0 pays 1/2 per dispatch and tenant 1 pays 1, so tenant 0
  // takes two turns to tenant 1's one (equal virtual times go to the
  // lower id) until its six batches are gone.
  const std::vector<TenantId> expected = {0, 1, 0, 0, 1, 0,
                                          0, 1, 0, 1, 1, 1};
  EXPECT_EQ(tenants_in_dispatch_order(drain(scheduler)), expected);

  // A registry of one tenant (or none) is a single lane, which still
  // takes the whole device.
  for (const std::size_t registered : {0U, 1U}) {
    SCOPED_TRACE("registered tenants " + std::to_string(registered));
    const std::vector<TenantConfig> lone(registered);
    Scheduler single = wfq_scheduler({.devices = 1}, 1, lone);
    for (RequestId id = 0; id < 3; ++id) {
      ASSERT_TRUE(single.submit(
          tenant_batch(0, 0, stories, 1, 0, sim::kNever, id)));
    }
    EXPECT_EQ(drain(single).size(), 3U);
  }
}

TEST(Scheduler, WfqResumesAnIdleTenantAtTheCurrentVirtualTime) {
  const auto stories = tiny_stories(1);
  std::vector<TenantConfig> tenants(2);
  Scheduler scheduler = wfq_scheduler({.devices = 1}, 1, tenants);
  // Tenant 0 has the device to itself for four dispatches.
  for (RequestId id = 0; id < 4; ++id) {
    ASSERT_TRUE(scheduler.submit(
        tenant_batch(0, 0, stories, 1, 0, sim::kNever, id)));
  }
  const std::vector<InferenceResponse> alone = drain(scheduler);
  ASSERT_EQ(alone.size(), 4U);
  sim::Cycle resume = 0;
  for (const InferenceResponse& r : alone) {
    resume = std::max(resume, r.complete_cycle);
  }
  // Tenant 1 returns from idle at the current virtual time, so it banks
  // no credit for the capacity it never used: the two alternate instead
  // of tenant 1 taking three turns in a row.
  for (RequestId id = 4; id < 10; ++id) {
    ASSERT_TRUE(scheduler.submit(tenant_batch(
        0, static_cast<TenantId>(id % 2), stories, 1, resume, sim::kNever,
        id)));
  }
  const std::vector<TenantId> expected = {1, 0, 1, 0, 1, 0};
  EXPECT_EQ(tenants_in_dispatch_order(drain(scheduler, resume)), expected);
}

TEST(Scheduler, WfqSkipsATenantWhoseBatchesHaveNoEligibleSlot) {
  const auto stories = tiny_stories(4);
  // Two dedicated shards (task t homes on slot t). Tenant 0's heavy
  // weight keeps it the least-served tenant throughout.
  std::vector<TenantConfig> tenants(2);
  tenants[0].weight = 8.0;
  Scheduler scheduler =
      wfq_scheduler({.devices = 2, .dedicated_devices = 2}, 2, tenants);
  ASSERT_TRUE(scheduler.submit(tenant_batch(0, 0, stories, 4, 0,
                                            sim::kNever, 0)));
  ASSERT_TRUE(scheduler.submit(tenant_batch(1, 1, stories, 1, 0,
                                            sim::kNever, 4)));
  scheduler.step(0);
  ASSERT_EQ(scheduler.pending_batches(), 0U);
  // The one-story batch frees slot 1 while slot 0 still runs four.
  const sim::Cycle t1 = scheduler.next_slot_free(0);
  ASSERT_NE(t1, sim::kNever);
  ASSERT_NE(scheduler.next_slot_free(t1), sim::kNever);

  ASSERT_TRUE(scheduler.submit(tenant_batch(0, 0, stories, 1, t1,
                                            sim::kNever, 5)));
  ASSERT_TRUE(scheduler.submit(tenant_batch(1, 1, stories, 1, t1,
                                            sim::kNever, 6)));
  scheduler.step(t1);
  // Tenant 0 comes first but its home slot is busy and slot 1's own
  // shard is not empty, so it cannot go: tenant 1 takes slot 1.
  EXPECT_EQ(scheduler.pending_batches(), 1U);
  EXPECT_EQ(scheduler.device_reports()[0].batches, 1U);
  EXPECT_EQ(scheduler.device_reports()[1].batches, 2U);

  const auto all = drain(scheduler, t1);
  ASSERT_EQ(all.size(), 7U);
  for (const InferenceResponse& r : all) {
    if (r.id == 5) {
      EXPECT_EQ(r.device, 0U);  // waited for its home slot
    }
  }
}

TEST(Scheduler, EdfAfterWfqSwitchTakesTheMostUrgentBatchAcrossTenants) {
  const auto stories = tiny_stories(1);
  std::vector<TenantConfig> tenants(2);
  Scheduler scheduler = wfq_scheduler({.devices = 1}, 1, tenants);
  ASSERT_TRUE(scheduler.submit(
      tenant_batch(0, 0, stories, 1, 0, 30'000'000, 0)));
  ASSERT_TRUE(scheduler.submit(
      tenant_batch(0, 0, stories, 1, 0, 20'000'000, 1)));
  ASSERT_TRUE(scheduler.submit(
      tenant_batch(0, 1, stories, 1, 0, 10'000'000, 2)));
  ASSERT_TRUE(scheduler.submit(
      tenant_batch(0, 1, stories, 1, 0, 40'000'000, 3)));
  // WFQ would alternate tenants (1, 2, 0, 3); EDF ignores the lanes and
  // goes by deadline alone.
  ASSERT_TRUE(scheduler.set_policy(SchedulerPolicy::kEdf));
  const auto all = drain(scheduler);
  ASSERT_EQ(all.size(), 4U);
  EXPECT_LT(dispatch_cycle_of(all, 2), dispatch_cycle_of(all, 1));
  EXPECT_LT(dispatch_cycle_of(all, 1), dispatch_cycle_of(all, 0));
  EXPECT_LT(dispatch_cycle_of(all, 0), dispatch_cycle_of(all, 3));
}

TEST(Scheduler, DeterministicAcrossPoliciesForPredictions) {
  const auto stories = tiny_stories(6);
  const auto predictions_under = [&](SchedulerPolicy policy) {
    Scheduler scheduler({.devices = 2, .policy = policy}, task_devices(2));
    EXPECT_TRUE(
        scheduler.submit(deadline_batch(0, stories, 3, 0, 9'000'000, 0)));
    EXPECT_TRUE(
        scheduler.submit(deadline_batch(1, stories, 3, 0, 1'000'000, 3)));
    auto all = drain(scheduler);
    std::sort(all.begin(), all.end(),
              [](const auto& a, const auto& b) { return a.id < b.id; });
    std::vector<std::int32_t> out;
    for (const auto& r : all) {
      out.push_back(r.prediction);
    }
    return out;
  };
  // Scheduling policy reorders work but must never change answers.
  EXPECT_EQ(predictions_under(SchedulerPolicy::kFifo),
            predictions_under(SchedulerPolicy::kEdf));
}

TEST(Scheduler, RejectsMalformedBatches) {
  const auto stories = tiny_stories(1);
  Scheduler scheduler({.devices = 1}, task_devices(1));
  EXPECT_THROW((void)scheduler.submit(make_batch(9, stories, 1, 0)),
               std::out_of_range);
  Batch empty_batch;
  empty_batch.task = 0;
  EXPECT_THROW((void)scheduler.submit(std::move(empty_batch)),
               std::invalid_argument);
}

}  // namespace
}  // namespace mann::serve
