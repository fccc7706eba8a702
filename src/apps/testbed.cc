#include "src/apps/testbed.h"

#include "src/odyssey/warden.h"
#include "src/serve/shared_service.h"
#include "src/util/check.h"

namespace odapps {

TestBed::TestBed(const Options& options) : rng_(options.seed) {
  laptop_ = odpower::MakeThinkPad560X(&sim_);
  link_ = std::make_unique<odnet::Link>(&sim_, &laptop_->power_manager(),
                                        odnet::LinkConfig{});
  viceroy_ = std::make_unique<odyssey::Viceroy>(&sim_, link_.get(),
                                                &laptop_->power_manager());
  arbiter_ = std::make_unique<DisplayArbiter>(&laptop_->power_manager());

  // Priorities follow Section 5.2: Speech lowest, then Video, Map, Web.
  speech_ = std::make_unique<SpeechRecognizer>(viceroy_.get(), &rng_, 0);
  video_ = std::make_unique<VideoPlayer>(viceroy_.get(), arbiter_.get(), &rng_, 1);
  map_ = std::make_unique<MapViewer>(viceroy_.get(), arbiter_.get(), &rng_, 2);
  web_ = std::make_unique<WebBrowser>(viceroy_.get(), arbiter_.get(), &rng_, 3);

  SetHardwarePm(options.hw_pm);

  if (options.trace) {
    tracer_ = std::make_unique<odscope::TraceRecorder>(&laptop_->machine(),
                                                       sim_.Now());
  }
}

TestBed::~TestBed() = default;

DegradedClient::DegradedClient(TestBed& bed, uint64_t seed)
    : bed_(bed),
      idle_monitor_(&bed.sim(), &bed.laptop().machine(),
                    odscope::OnlineMonitorConfig{}, seed ^ 0xf00dULL) {
  odnet::RpcConfig rpc = bed.viceroy().rpc().config();
  rpc.retry_timeout = odsim::SimDuration::Millis(500);
  rpc.max_retries = 5;
  rpc.deadline = odsim::SimDuration::Seconds(10);
  bed.viceroy().rpc().set_config(rpc);
}

void DegradedClient::Arm(const odfault::FaultPlan& plan,
                         odscope::PowerMonitor* monitor) {
  OD_CHECK_MSG(injector_ == nullptr, "DegradedClient::Arm called twice");
  odfault::FaultTargets targets;
  targets.link = &bed_.link();
  targets.rpc = &bed_.viceroy().rpc();
  targets.pm = &bed_.laptop().power_manager();
  for (const char* data_type : {"video", "speech", "map", "web"}) {
    odyssey::Warden* warden = bed_.viceroy().FindWarden(data_type);
    if (warden != nullptr) {
      targets.servers.push_back(warden->service());
    }
  }
  targets.monitor = monitor != nullptr ? monitor : &idle_monitor_;
  injector_ = std::make_unique<odfault::FaultInjector>(&bed_.sim(), targets);
  injector_->Arm(plan);
}

void TestBed::SetHardwarePm(bool enabled) {
  laptop_->power_manager().SetHardwarePmEnabled(enabled);
  arbiter_->set_off_when_idle(enabled);
}

double TestBed::Measurement::Component(const std::string& name) const {
  auto it = by_component.find(name);
  return it == by_component.end() ? 0.0 : it->second;
}

double TestBed::Measurement::Process(const std::string& name) const {
  auto it = by_process.find(name);
  return it == by_process.end() ? 0.0 : it->second;
}

TestBed::Measurement TestBed::Measure(
    const std::function<void(odsim::EventFn done)>& body) {
  odsim::SimTime start = sim_.Now();
  laptop_->accounting().Reset(start);
  if (tracer_ != nullptr) {
    tracer_->Restart(start);
  }

  bool finished = false;
  body([this, &finished] {
    finished = true;
    sim_.Stop();
  });
  sim_.Run();
  OD_CHECK_MSG(finished, "workload did not signal completion");
  return Collect(start);
}

TestBed::Measurement TestBed::MeasureFor(odsim::SimDuration duration) {
  odsim::SimTime start = sim_.Now();
  laptop_->accounting().Reset(start);
  if (tracer_ != nullptr) {
    tracer_->Restart(start);
  }
  sim_.RunUntil(start + duration);
  return Collect(start);
}

TestBed::Measurement TestBed::Collect(odsim::SimTime start) {
  odsim::SimTime now = sim_.Now();
  odpower::EnergyAccounting& accounting = laptop_->accounting();

  Measurement m;
  m.joules = accounting.TotalJoules(now);
  m.seconds = (now - start).seconds();

  odpower::Machine& machine = laptop_->machine();
  for (int i = 0; i < machine.component_count(); ++i) {
    m.by_component[machine.component(i).name()] = accounting.ComponentJoules(i, now);
  }
  m.by_component["Synergy"] = accounting.SynergyJoules(now);

  for (odsim::ProcessId pid : accounting.Processes(now)) {
    odpower::ContextUsage usage = accounting.ProcessUsage(pid, now);
    const std::string& name = sim_.processes().ProcessName(pid);
    m.by_process[name] = usage.joules;
    m.cpu_seconds[name] = usage.cpu_seconds;
  }

  for (const auto& warden : viceroy_->wardens()) {
    odserve::SharedService* service = warden->service();
    Measurement::ServerStats& stats = m.by_server[service->name()];
    stats.queue_depth = service->queue_depth();
    stats.busy_seconds = service->total_busy_seconds();
    stats.completed_requests = service->completed_requests();
    stats.wait_p50_seconds = service->WaitPercentileSeconds(50.0);
    stats.wait_p95_seconds = service->WaitPercentileSeconds(95.0);
  }

  if (tracer_ != nullptr) {
    m.trace =
        std::make_shared<const odtrace::PowerTrace>(tracer_->Snapshot(now));
  }
  return m;
}

}  // namespace odapps
