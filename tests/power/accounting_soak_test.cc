// Exactness soak: the machine's draw snapshot and the accountant's inline
// slots must give the same doubles, bit for bit, as a plain observer that
// re-sums Component::power() in attach order on every change and keeps every
// context, idle included, in ordinary maps.  Drives a laptop through random
// component states, zoned-display fractions, clock scaling, CPU work, a
// component attached mid-run and Resets.

#include <map>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/power/accounting.h"
#include "src/power/cpu.h"
#include "src/power/thinkpad560x.h"
#include "src/sim/simulator.h"
#include "src/util/rng.h"

namespace odpower {
namespace {

using odsim::ProcedureId;
using odsim::ProcessId;
using odsim::SimTime;

// The accountant as a direct reading of the machine: no snapshot array, no
// inline idle slot.  A component counts as active while it draws more than
// kActiveThresholdWatts.
class ReferenceAccountant final : public MachineObserver, public odsim::CpuObserver {
 public:
  ReferenceAccountant(Machine* machine, double synergy_per_extra_active)
      : machine_(machine),
        synergy_per_extra_active_(synergy_per_extra_active),
        last_(machine->sim()->Now()) {
    Snapshot();
    machine_->AddObserver(this);
    machine_->sim()->AddCpuObserver(this);
  }

  void OnMachinePowerChanged(SimTime now) override {
    AccrueTo(now);
    Snapshot();
  }

  void OnCpuContextSwitch(SimTime now, ProcessId pid, ProcedureId proc,
                          bool /*busy*/) override {
    AccrueTo(now);
    pid_ = pid;
    proc_ = proc;
  }

  void AccrueTo(SimTime now) {
    if (now == last_) {
      return;
    }
    double dt = (now - last_).seconds();
    last_ = now;
    total_joules += total_watts * dt;
    synergy_joules += synergy_watts * dt;
    component_joules.resize(watts_.size(), 0.0);
    for (size_t i = 0; i < watts_.size(); ++i) {
      component_joules[i] += watts_[i] * dt;
    }
    double joules = total_watts * dt;
    ContextUsage& process = by_process[pid_];
    ContextUsage& context = by_context[{pid_, proc_}];
    process.joules += joules;
    context.joules += joules;
    if (pid_ != odsim::kIdlePid) {
      process.cpu_seconds += dt;
      context.cpu_seconds += dt;
    }
  }

  void Reset(SimTime now) {
    AccrueTo(now);
    total_joules = 0.0;
    synergy_joules = 0.0;
    component_joules.assign(component_joules.size(), 0.0);
    by_process.clear();
    by_context.clear();
  }

  double total_watts = 0.0;
  double synergy_watts = 0.0;
  double total_joules = 0.0;
  double synergy_joules = 0.0;
  std::vector<double> component_joules;
  std::map<ProcessId, ContextUsage> by_process;
  std::map<std::pair<ProcessId, ProcedureId>, ContextUsage> by_context;

 private:
  void Snapshot() {
    watts_.clear();
    double sum = 0.0;
    int active = 0;
    for (int i = 0; i < machine_->component_count(); ++i) {
      const Component& c = machine_->component(i);
      watts_.push_back(c.power());
      sum += c.power();
      if (c.power() > kActiveThresholdWatts) {
        ++active;
      }
    }
    synergy_watts = active > 1 ? synergy_per_extra_active_ * static_cast<double>(active - 1)
                               : 0.0;
    total_watts = sum + synergy_watts;
  }

  Machine* machine_;
  double synergy_per_extra_active_;
  SimTime last_;
  std::vector<double> watts_;
  ProcessId pid_ = odsim::kIdlePid;
  ProcedureId proc_ = odsim::kIdleProc;
};

void ExpectUsageEq(const ContextUsage& got, const ContextUsage& want) {
  EXPECT_EQ(got.joules, want.joules);
  EXPECT_EQ(got.cpu_seconds, want.cpu_seconds);
}

// Compares every accountant read-out with the reference at `now`.  Both
// accrue to `now` here, so they split the integration at the same instants.
void ExpectExact(Laptop& laptop, ReferenceAccountant& ref, ProcessId unseen) {
  Machine& machine = laptop.machine();
  EnergyAccounting& accounting = laptop.accounting();
  const SimTime now = machine.sim()->Now();
  ref.AccrueTo(now);
  EXPECT_EQ(machine.TotalPower(), ref.total_watts);
  EXPECT_EQ(machine.SynergyPower(), ref.synergy_watts);
  EXPECT_EQ(accounting.TotalJoules(now), ref.total_joules);
  EXPECT_EQ(accounting.SynergyJoules(now), ref.synergy_joules);
  for (int i = 0; i < machine.component_count(); ++i) {
    double want = static_cast<size_t>(i) < ref.component_joules.size()
                      ? ref.component_joules[static_cast<size_t>(i)]
                      : 0.0;
    EXPECT_EQ(accounting.ComponentJoules(i, now), want) << "component " << i;
  }
  std::vector<ProcessId> pids;
  for (const auto& [pid, usage] : ref.by_process) {
    pids.push_back(pid);
    ExpectUsageEq(accounting.ProcessUsage(pid, now), usage);
  }
  EXPECT_EQ(accounting.Processes(now), pids);
  for (const auto& [context, usage] : ref.by_context) {
    ExpectUsageEq(accounting.ProcedureUsage(context.first, context.second, now),
                  usage);
  }
  // Contexts that never ran read as zero, the idle ones included.
  ExpectUsageEq(accounting.ProcessUsage(unseen, now), ContextUsage{});
  ExpectUsageEq(accounting.ProcedureUsage(unseen, odsim::kIdleProc, now),
                ContextUsage{});
  if (ref.by_process.count(odsim::kIdlePid) == 0) {
    ExpectUsageEq(accounting.ProcessUsage(odsim::kIdlePid, now), ContextUsage{});
    ExpectUsageEq(
        accounting.ProcedureUsage(odsim::kIdlePid, odsim::kIdleProc, now),
        ContextUsage{});
  }
}

class AccountingSoakTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AccountingSoakTest, SnapshotAndInlineSlotsMatchAPlainResum) {
  odsim::Simulator sim;
  auto laptop = MakeThinkPad560X(&sim);
  ReferenceAccountant ref(&laptop->machine(),
                          laptop->spec().synergy_per_extra_active);
  odutil::Rng rng(GetParam());

  ProcessId pids[3] = {
      sim.processes().RegisterProcess("a"),
      sim.processes().RegisterProcess("b"),
      sim.processes().RegisterProcess("c"),
  };
  ProcedureId procs[2] = {
      sim.processes().RegisterProcedure("_x"),
      sim.processes().RegisterProcedure("_y"),
  };
  const ProcessId unseen = sim.processes().RegisterProcess("never-runs");

  // Nothing has accrued yet.
  ExpectExact(*laptop, ref, unseen);
  EXPECT_TRUE(laptop->accounting().Processes(sim.Now()).empty());

  constexpr int kSteps = 3000;
  for (int step = 0; step < kSteps; ++step) {
    if (step == kSteps / 2) {
      // Attached after the accountant, as the smart battery's monitor is.
      laptop->machine().AddComponent(std::make_unique<OtherComponent>(0.61));
    }
    switch (rng.UniformInt(0, 9)) {
      case 0:
        laptop->display().Set(static_cast<DisplayState>(rng.UniformInt(0, 2)));
        break;
      case 1:
        laptop->wavelan().Set(static_cast<WaveLanState>(rng.UniformInt(0, 4)));
        break;
      case 2:
        laptop->disk().Set(static_cast<DiskState>(rng.UniformInt(0, 3)));
        break;
      case 3:
        if (rng.Bernoulli(0.8)) {
          laptop->display().SetZonedLitFraction(rng.Uniform(0.0, 1.0));
        } else {
          laptop->display().ClearZoning();
        }
        break;
      case 4:
        laptop->SetCpuSpeed(rng.Uniform(0.3, 1.0));
        break;
      case 5:
      case 6:
        sim.SubmitWork(pids[rng.UniformInt(0, 2)], procs[rng.UniformInt(0, 1)],
                       odsim::SimDuration::Seconds(rng.Uniform(0.001, 0.2)),
                       nullptr);
        break;
      case 7:
        if (rng.Bernoulli(0.02)) {
          laptop->accounting().Reset(sim.Now());
          ref.Reset(sim.Now());
          // Reset at an instant with nothing accrued since lists nothing.
          ExpectExact(*laptop, ref, unseen);
          EXPECT_TRUE(laptop->accounting().Processes(sim.Now()).empty());
        }
        break;
      default:
        break;
    }
    if (rng.Bernoulli(0.3)) {
      ExpectExact(*laptop, ref, unseen);
    }
    sim.RunUntil(sim.Now() + SimTime::Seconds(rng.Uniform(0.0, 0.1)));
    if (HasFailure()) {
      FAIL() << "diverged at step " << step;
    }
  }
  sim.RunUntil(sim.Now() + SimTime::Seconds(5.0));
  ExpectExact(*laptop, ref, unseen);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AccountingSoakTest,
                         ::testing::Values(1u, 2u, 3u, 4u));

// A fleet device submits no CPU work: only the idle loop ever accrues, and
// it is listed exactly when it has.
TEST(AccountingIdleSlotTest, DeviceWithoutCpuWorkListsOnlyIdle) {
  odsim::Simulator sim;
  auto laptop = MakeThinkPad560X(&sim);
  ReferenceAccountant ref(&laptop->machine(),
                          laptop->spec().synergy_per_extra_active);
  odutil::Rng rng(7);
  const ProcessId unseen = sim.processes().RegisterProcess("never-runs");

  EXPECT_TRUE(laptop->accounting().Processes(sim.Now()).empty());
  for (int step = 0; step < 200; ++step) {
    laptop->wavelan().Set(static_cast<WaveLanState>(rng.UniformInt(0, 4)));
    laptop->display().Set(static_cast<DisplayState>(rng.UniformInt(0, 2)));
    sim.RunUntil(sim.Now() + SimTime::Seconds(rng.Uniform(0.0, 0.5)));
  }
  ExpectExact(*laptop, ref, unseen);
  EXPECT_EQ(laptop->accounting().Processes(sim.Now()),
            std::vector<ProcessId>{odsim::kIdlePid});
  ContextUsage idle = laptop->accounting().ProcessUsage(odsim::kIdlePid, sim.Now());
  EXPECT_EQ(idle.cpu_seconds, 0.0);
  EXPECT_EQ(idle.joules, laptop->accounting().TotalJoules(sim.Now()));

  laptop->accounting().Reset(sim.Now());
  ref.Reset(sim.Now());
  EXPECT_TRUE(laptop->accounting().Processes(sim.Now()).empty());
  sim.RunUntil(sim.Now() + SimTime::Seconds(1.0));
  EXPECT_EQ(laptop->accounting().Processes(sim.Now()),
            std::vector<ProcessId>{odsim::kIdlePid});
  ExpectExact(*laptop, ref, unseen);
}

}  // namespace
}  // namespace odpower
