// Serving quickstart: stand up the mann::serve runtime on two tasks and
// serve a Poisson request stream across a two-device pool.
//
//   1. train two small MemN2N models (one per task)
//   2. compile them to device programs
//   3. serve 200 mixed requests through generator -> batcher -> scheduler
//   4. print the serving report (throughput, latency percentiles,
//      utilization, batching efficiency)
//   5. serve the same stream again with host workers + the service-cycle
//      cache: wall-clock drops, every simulated number stays identical
//   6. multi-tenant QoS: re-serve under overload with three tenants —
//      two conforming, one flooding past its quota — and compare plain
//      EDF against admission control + weighted-fair dispatch (kWfq)
//   7. observability: re-serve with the mann::obs recorder + metrics
//      registry attached and export serving_demo_trace.json — open it in
//      Perfetto (ui.perfetto.dev) or run scripts/trace_summary.py on it
//   8. the incremental API: drive the same stack open-loop through a
//      serve::ServerSession — submit() / step() / poll_completions(),
//      with a live mid-run SLO change — the programmatic face of the
//      mann_served daemon (tools/mann_served.cpp)
//
// Acts 3-7 each serve one serve::ServerConfig through serve::run().
//
// Build & run:  cmake --build build && ./build/examples/serving_demo
#include <cstdio>

#include "accel/compiler.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/measurement.hpp"
#include "serve/session.hpp"

int main() {
  using namespace mann;

  runtime::PrepareConfig prep = runtime::default_prepare_config();
  prep.dataset.train_stories = 600;
  prep.dataset.test_stories = 150;
  prep.train.epochs = 20;

  std::vector<runtime::TaskArtifacts> tasks;
  for (const data::TaskId id :
       {data::TaskId::kSingleSupportingFact, data::TaskId::kYesNoQuestions}) {
    std::printf("preparing %s ...\n", data::task_name(id).c_str());
    tasks.push_back(runtime::prepare_task(id, prep));
  }

  std::vector<serve::ServedModel> models;
  for (const runtime::TaskArtifacts& art : tasks) {
    models.push_back({accel::compile_model(art.model), art.dataset.test});
  }

  serve::ServerConfig config;
  config.accel.clock_hz = 100.0e6;
  config.scheduler.devices = 2;
  config.batcher.max_batch = 8;
  config.batcher.max_wait_cycles = 200'000;  // 2 ms at 100 MHz
  config.traffic.mean_interarrival_cycles = 10'000.0;
  // Deadline-aware dispatch (the default policy): every request carries
  // a 5 ms SLO, and the report below shows how many were met.
  config.scheduler.policy = serve::SchedulerPolicy::kEdf;
  config.traffic.slo.default_deadline_cycles = 500'000;  // 5 ms at 100 MHz

  const serve::ServingReport r = serve::run(config, models, 200);

  std::printf("\n2 devices, B=8, Poisson 10k-cycle arrivals, EDF\n");
  std::printf("requests: offered=%zu completed=%zu rejected=%zu\n",
              r.offered, r.completed, r.rejected);
  std::printf("throughput: %.0f stories/s (offered %.0f/s) over %.3f ms\n",
              r.throughput_stories_per_second,
              r.offered_stories_per_second, r.seconds * 1e3);
  std::printf("latency: p50=%.3f ms  p95=%.3f ms  p99=%.3f ms  max=%.3f ms\n",
              r.latency.p50_seconds * 1e3, r.latency.p95_seconds * 1e3,
              r.latency.p99_seconds * 1e3, r.latency.max_seconds * 1e3);
  std::printf("queueing: p50 wait=%.3f ms  mean batch=%.2f (%.0f%% of max)\n",
              r.queue_wait.p50_seconds * 1e3, r.mean_batch_size,
              r.batching_efficiency * 100.0);
  std::printf("pool: %.1f%% mean utilization, %llu model uploads for %llu "
              "batches\n",
              r.mean_device_utilization * 100.0,
              static_cast<unsigned long long>(r.model_uploads),
              static_cast<unsigned long long>(r.batching.batches_out));
  std::printf("serving accuracy: %.3f (early-exit %.1f%%)\n", r.accuracy,
              r.early_exit_rate * 100.0);
  std::printf("SLO: %.1f%% of deadlines met (%llu missed of %llu); "
              "%llu model evictions\n",
              r.deadline_hit_rate * 100.0,
              static_cast<unsigned long long>(r.deadline_missed),
              static_cast<unsigned long long>(r.deadline_total),
              static_cast<unsigned long long>(r.model_evictions));
  std::printf("energy: %.2f J total (%.1f W mean), %.3f mJ per "
              "inference\n",
              r.energy.total_joules, r.energy.mean_watts,
              r.energy.per_inference_joules * 1e3);
  for (const serve::TaskSloReport& slo : r.task_slo) {
    std::printf("  task %zu: %llu answered, SLO hit %.1f%%\n", slo.task,
                static_cast<unsigned long long>(slo.completed),
                slo.hit_rate() * 100.0);
  }
  for (const serve::DeviceReport& d : r.devices) {
    std::printf("  device %zu: %llu batches, %llu stories, %llu uploads\n",
                d.id, static_cast<unsigned long long>(d.batches),
                static_cast<unsigned long long>(d.stories),
                static_cast<unsigned long long>(d.model_uploads));
  }

  // The parallel runtime: one host worker per device slot plus the
  // service-cycle cache. Simulated numbers are bit-identical to the
  // sequential run above — only host wall-clock moves.
  serve::ServerConfig parallel = config;
  parallel.scheduler.workers = parallel.scheduler.devices;
  const serve::ServingReport p = serve::run(parallel, models, 200);
  std::printf("\nthe same with 2 host workers + service-cycle cache\n");
  std::printf("host wall: %.3f s -> %.3f s; cache hit rate %.1f%% "
              "(%llu hits / %llu misses)\n",
              r.host_wall_seconds, p.host_wall_seconds,
              p.cycle_cache.hit_rate() * 100.0,
              static_cast<unsigned long long>(p.cycle_cache.hits),
              static_cast<unsigned long long>(p.cycle_cache.misses));
  const bool identical = p.makespan_cycles == r.makespan_cycles &&
                         p.accuracy == r.accuracy &&
                         p.latency.p99_cycles == r.latency.p99_cycles;
  std::printf("simulated reports identical: %s\n",
              identical ? "yes" : "NO (bug!)");

  // Multi-tenant QoS: overload the pool with three tenants. Tenant 2
  // offers half the traffic but its quota entitles it to far less; with
  // plain EDF the flood degrades everyone, with admission + WFQ the
  // excess is shed at the door and conforming tenants keep their SLOs.
  serve::ServerConfig qos = config;
  qos.traffic.mean_interarrival_cycles = 400.0;       // past pool saturation
  qos.batcher.max_wait_cycles = 30'000;               // batches form quickly
  qos.traffic.slo.default_deadline_cycles = 100'000;  // 1 ms at 100 MHz
  qos.traffic.tenants.resize(3);
  qos.traffic.tenants[0] = {.tier = 0, .weight = 4.0, .traffic_share = 1.0};
  qos.traffic.tenants[1] = {.tier = 1, .weight = 2.0, .traffic_share = 1.0};
  qos.traffic.tenants[2] = {.tier = 2,
                            .weight = 1.0,
                            .traffic_share = 2.0,
                            .quota_interarrival_cycles = 20'000.0,
                            .quota_burst = 4.0};

  for (const serve::SchedulerPolicy policy :
       {serve::SchedulerPolicy::kEdf, serve::SchedulerPolicy::kWfq}) {
    qos.scheduler.policy = policy;
    // Quotas only bite under kWfq here so the EDF leg shows the
    // unprotected baseline.
    qos.admission.enforce_quotas = policy == serve::SchedulerPolicy::kWfq;
    const serve::ServingReport q = serve::run(qos, models, 2000);
    std::printf("\n3 tenants at overload, %s%s\n",
                serve::scheduler_policy_name(policy),
                qos.admission.enforce_quotas ? " + quotas" : "");
    std::printf("fairness index %.3f; shed %llu (quota %llu)\n",
                q.fairness_index,
                static_cast<unsigned long long>(q.shed.total()),
                static_cast<unsigned long long>(
                    q.shed.count(serve::ShedReason::kQuota)));
    for (const serve::TenantReport& t : q.tenants) {
      std::printf("  tenant %u (tier %u, w=%.0f): offered %llu admitted "
                  "%llu, SLO hit %.1f%%\n",
                  t.tenant, t.tier, t.weight,
                  static_cast<unsigned long long>(t.offered()),
                  static_cast<unsigned long long>(t.admitted),
                  t.hit_rate() * 100.0);
    }
  }

  // Observability: the act-5 workload once more with lifecycle tracing
  // and the metrics registry attached. The simulated report must not
  // move (tracing is invisible to the simulation); the trace lands
  // beside the binary as Chrome trace-event JSON.
  obs::MetricsRegistry registry;
  obs::TraceRecorder recorder;
  serve::ServerConfig observed = parallel;
  observed.metrics = &registry;
  observed.trace = &recorder;
  const serve::ServingReport traced = serve::run(observed, models, 200);
  const bool trace_identical =
      traced.makespan_cycles == r.makespan_cycles &&
      traced.accuracy == r.accuracy &&
      traced.latency.p99_cycles == r.latency.p99_cycles;
  const char* trace_path = "serving_demo_trace.json";
  const bool wrote = obs::write_chrome_trace(
      trace_path, recorder, config.accel.clock_hz, &registry);
  std::printf("\nobservability: recorded %zu trace events; simulated "
              "report %s the untraced run\n",
              recorder.event_count(),
              trace_identical ? "identical to" : "DIVERGED from (bug!)");
  if (wrote) {
    std::printf("wrote %s — open in Perfetto (ui.perfetto.dev) or run "
                "scripts/trace_summary.py %s\n",
                trace_path, trace_path);
  } else {
    std::fprintf(stderr, "cannot write %s\n", trace_path);
  }

  // The incremental API: no generator — the caller is the arrival
  // process. Submit a small burst, watch it resolve, tighten the SLO
  // live, submit another burst, then drain. This is exactly what the
  // mann_served daemon does per protocol command.
  std::vector<serve::ServedModel> ith_models;
  for (const runtime::TaskArtifacts& art : tasks) {
    ith_models.push_back({accel::compile_model(art.model, &art.ith),
                          art.dataset.test});
  }
  serve::SloConfig open_slo;
  open_slo.default_deadline_cycles = 500'000;
  serve::ServerConfig open_config;
  open_config.traffic.slo = open_slo;
  serve::ServerSession session(open_config, ith_models);
  std::printf("\nincremental session:\n");
  for (int burst = 0; burst < 2; ++burst) {
    for (int i = 0; i < 4; ++i) {
      serve::SubmitRequest request;
      request.task = static_cast<std::size_t>(i % 2);
      (void)session.submit(request);
    }
    (void)session.step_until(sim::kNever);  // run the burst to quiescence
    for (const serve::Completion& c : session.poll_completions()) {
      std::printf("  id=%llu task=%zu outcome=%s latency=%.3f ms\n",
                  static_cast<unsigned long long>(c.response.id),
                  c.response.task, serve::request_outcome_name(c.outcome),
                  static_cast<double>(c.response.latency_cycles()) /
                      open_config.accel.clock_hz * 1e3);
    }
    if (burst == 0) {
      open_slo.default_deadline_cycles = 150'000;  // tighten live
      session.set_slo(open_slo);
      std::printf("  -- SLO tightened to 1.5 ms mid-session --\n");
    }
  }
  session.drain();
  const serve::ServingReport open_report = session.finalize();
  std::printf("  session report: offered=%zu completed=%zu over %llu "
              "cycles\n",
              open_report.offered, open_report.completed,
              static_cast<unsigned long long>(open_report.makespan_cycles));

  return identical && trace_identical && wrote &&
                 open_report.completed == open_report.offered
             ? 0
             : 1;
}
