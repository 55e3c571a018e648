// A small CPU-time sampling profiler, loaded into a process with
// LD_PRELOAD (scripts/profile_e2e.sh builds and runs it).
//
// On load it arms ITIMER_PROF at 1 kHz of the process's CPU time. Each
// SIGPROF records the interrupted instruction and the return addresses
// above it (glibc's backtrace(), DWARF unwinding, so no frame pointers
// are needed) into a fixed buffer. At exit it writes one line per sample
// to $MANN_PROFILE_OUT (default profile_samples.txt): each address as
// `module:offset`, the interrupted one first, where offset is relative
// to the module's load base, as addr2line reads it.
#include <dlfcn.h>
#include <execinfo.h>
#include <signal.h>
#include <sys/time.h>
#include <ucontext.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>

namespace {

constexpr int kMaxDepth = 48;
constexpr std::size_t kMaxWords = std::size_t{1} << 22;  // 32 MB

// One sample is its depth, then that many addresses.
std::uintptr_t g_words[kMaxWords];
volatile std::size_t g_used = 0;
volatile std::size_t g_dropped = 0;

void on_sigprof(int, siginfo_t*, void* context) {
  void* frames[kMaxDepth + 2];
  const int depth = backtrace(frames, kMaxDepth + 2);
  std::size_t at = g_used;
  if (at + kMaxDepth + 2 > kMaxWords) {
    g_dropped = g_dropped + 1;
    return;
  }
  // frames[0] is this handler and frames[1] the signal trampoline; the
  // interrupted instruction comes from the saved context instead.
  const auto* uc = static_cast<const ucontext_t*>(context);
  const int kept = depth > 2 ? depth - 2 : 0;
  g_words[at++] = static_cast<std::uintptr_t>(kept + 1);
  g_words[at++] = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
  for (int i = 2; i < depth; ++i) {
    // A return address follows its call: look the call up instead.
    g_words[at++] = reinterpret_cast<std::uintptr_t>(frames[i]) - 1;
  }
  g_used = at;
}

void write_address(std::FILE* out, std::uintptr_t address) {
  Dl_info info{};
  if (dladdr(reinterpret_cast<void*>(address), &info) != 0 &&
      info.dli_fname != nullptr) {
    const auto base = reinterpret_cast<std::uintptr_t>(info.dli_fbase);
    std::fprintf(out, " %s:0x%jx", info.dli_fname,
                 static_cast<std::uintmax_t>(address - base));
  } else {
    std::fprintf(out, " ?:0x%jx", static_cast<std::uintmax_t>(address));
  }
}

__attribute__((constructor)) void start() {
  void* warm[1];
  (void)backtrace(warm, 1);  // loads the unwinder outside the handler
  struct sigaction action {};
  action.sa_sigaction = on_sigprof;
  action.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&action.sa_mask);
  sigaction(SIGPROF, &action, nullptr);
  const itimerval every_ms{{0, 1000}, {0, 1000}};
  setitimer(ITIMER_PROF, &every_ms, nullptr);
}

__attribute__((destructor)) void stop() {
  const itimerval off{};
  setitimer(ITIMER_PROF, &off, nullptr);
  const char* path = std::getenv("MANN_PROFILE_OUT");
  std::FILE* out = std::fopen(path != nullptr ? path : "profile_samples.txt",
                              "w");
  if (out == nullptr) {
    return;
  }
  std::fprintf(out, "# dropped %zu\n", static_cast<std::size_t>(g_dropped));
  for (std::size_t at = 0; at < g_used;) {
    const std::size_t depth = g_words[at++];
    for (std::size_t i = 0; i < depth; ++i) {
      write_address(out, g_words[at++]);
    }
    std::fputc('\n', out);
  }
  std::fclose(out);
}

}  // namespace
