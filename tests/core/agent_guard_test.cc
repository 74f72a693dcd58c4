// Circuit-breaker lifecycle for the guarded agent RPC path (DESIGN.md §8):
// a dead agent times out, retries back off, the breaker opens, deflation
// still meets its target by falling through to the OS/hypervisor layers,
// and a successful footprint probe closes the breaker again. All with a
// fixed seed, so the exact schedule is pinned.
#include "src/core/agent_guard.h"

#include <gtest/gtest.h>

#include <memory>

#include "src/core/local_controller.h"

namespace defl {
namespace {

// Elastic test agent: frees exactly what is asked, tracks its footprint.
class ElasticAgent : public DeflationAgent {
 public:
  explicit ElasticAgent(double footprint_mb) : footprint_mb_(footprint_mb) {}

  ResourceVector SelfDeflate(const ResourceVector& target) override {
    ++calls_;
    const double give = std::min(target.memory_mb(), footprint_mb_ * 0.5);
    footprint_mb_ -= give;
    return ResourceVector(0.0, give);
  }
  void OnReinflate(const ResourceVector& added) override {
    footprint_mb_ += added.memory_mb();
  }
  double MemoryFootprintMb() const override { return footprint_mb_; }
  int calls() const { return calls_; }

 private:
  double footprint_mb_;
  int calls_ = 0;
};

GuestOs::Params ExactOsParams() {
  GuestOs::Params p;
  p.kernel_reserve_mb = 0.0;
  p.unplug_efficiency = 1.0;
  p.min_cpus = 0;
  return p;
}

std::unique_ptr<Vm> MakeVm(VmId id) {
  VmSpec spec;
  spec.name = "guarded-vm";
  spec.size = ResourceVector(8.0, 32768.0);
  spec.priority = VmPriority::kLow;
  auto vm = std::make_unique<Vm>(id, spec, ExactOsParams());
  vm->set_state(VmState::kRunning);
  vm->guest_os().set_app_used_mb(8000.0);
  return vm;
}

// kAgentUnresponsive with p=1 scoped to the VM, budgeted so the fault
// "heals" after `budget` attempts -- the deterministic way to script
// timeout -> breaker open -> fall-through -> probe success -> close.
FaultPlan DeadAgentPlan(int64_t vm, int64_t budget) {
  FaultPlan plan;
  plan.seed = 77;
  FaultRule rule;
  rule.kind = FaultKind::kAgentUnresponsive;
  rule.vm = vm;
  rule.probability = 1.0;
  rule.max_count = budget;
  plan.rules.push_back(rule);
  return plan;
}

TEST(AgentGuardTest, BreakerLifecycleMeetsTargetThroughout) {
  Server server(1, ResourceVector(32.0, 131072.0));
  Vm* vm = server.AddVm(MakeVm(1));
  LocalControllerConfig config;
  config.mode = DeflationMode::kCascade;
  config.guard.rpc_timeout_s = 5.0;
  config.guard.max_attempts = 3;
  config.guard.breaker_threshold = 3;
  LocalController controller(&server, config);
  ElasticAgent agent(8000.0);
  controller.RegisterAgent(1, &agent);

  // Budget of 4: the first request burns 3 attempts (opens the breaker),
  // the first probe burns the 4th (still down), the second probe succeeds.
  FaultInjector injector(DeadAgentPlan(1, 4));
  controller.AttachFaultInjector(&injector);
  GuardedAgent* guard = controller.FindGuard(1);
  ASSERT_NE(guard, nullptr);
  EXPECT_FALSE(guard->breaker_open());

  // Request 1: every attempt times out, the breaker trips on the third
  // consecutive timeout, and the OS + hypervisor still deliver the target.
  const ResourceVector target(2.0, 4096.0);
  const DeflationOutcome out1 = controller.DeflateVm(1, target);
  EXPECT_TRUE(out1.TargetMet());
  EXPECT_TRUE(out1.app_freed.IsZero());
  EXPECT_TRUE(guard->breaker_open());
  EXPECT_EQ(guard->timeouts(), 3);
  EXPECT_EQ(guard->retries(), 2);
  EXPECT_EQ(guard->breaker_trips(), 1);
  EXPECT_EQ(agent.calls(), 0);
  // Timeout waits and backoff were folded into the reported latency.
  EXPECT_GE(out1.latency_seconds, 3 * config.guard.rpc_timeout_s);
  for (const ResourceKind kind : kAllResources) {
    EXPECT_GE(vm->effective()[kind], -1e-9);
  }

  // Request 2: breaker open, probe times out (burns the budget's last
  // fault), the cascade falls through -- target still met, agent untouched.
  const DeflationOutcome out2 = controller.DeflateVm(1, target);
  EXPECT_TRUE(out2.TargetMet());
  EXPECT_TRUE(guard->breaker_open());
  EXPECT_EQ(guard->timeouts(), 4);
  EXPECT_EQ(agent.calls(), 0);

  // Request 3: the fault budget is spent, the footprint probe succeeds,
  // the breaker closes, and the agent participates again.
  const DeflationOutcome out3 = controller.DeflateVm(1, target);
  EXPECT_TRUE(out3.TargetMet());
  EXPECT_FALSE(guard->breaker_open());
  EXPECT_EQ(agent.calls(), 1);
  EXPECT_GT(out3.app_freed.memory_mb(), 0.0);
  for (const ResourceKind kind : kAllResources) {
    EXPECT_GE(vm->effective()[kind], -1e-9);
  }
}

TEST(AgentGuardTest, DeadAgentFootprintStaysCached) {
  // An open breaker must report the last known footprint, not zero --
  // otherwise hot-unplug would consider the app's memory free to take.
  ElasticAgent agent(6000.0);
  FaultInjector injector(DeadAgentPlan(9, -1));  // permanently dead
  AgentGuardConfig config;
  config.breaker_threshold = 1;
  GuardedAgent guard(9, &agent, &injector, config);
  EXPECT_DOUBLE_EQ(guard.MemoryFootprintMb(), 6000.0);
  guard.SelfDeflate(ResourceVector(0.0, 1000.0));  // times out, breaker opens
  ASSERT_TRUE(guard.breaker_open());
  EXPECT_DOUBLE_EQ(guard.MemoryFootprintMb(), 6000.0);
}

TEST(AgentGuardTest, NoInjectorIsPassThrough) {
  ElasticAgent agent(8000.0);
  AgentGuardConfig config;
  GuardedAgent guard(1, &agent, nullptr, config);
  const ResourceVector freed = guard.SelfDeflate(ResourceVector(0.0, 2000.0));
  EXPECT_DOUBLE_EQ(freed.memory_mb(), 2000.0);
  EXPECT_EQ(guard.timeouts(), 0);
  EXPECT_DOUBLE_EQ(guard.TakeInjectedDelay(), 0.0);
}

TEST(AgentGuardTest, ShortDeliveryScalesFreedAmount) {
  FaultPlan plan;
  plan.seed = 11;
  FaultRule rule;
  rule.kind = FaultKind::kAgentShortDelivery;
  rule.probability = 1.0;
  rule.magnitude = 0.5;
  plan.rules.push_back(rule);
  FaultInjector injector(plan);
  ElasticAgent agent(8000.0);
  AgentGuardConfig config;
  GuardedAgent guard(1, &agent, &injector, config);
  const ResourceVector freed = guard.SelfDeflate(ResourceVector(0.0, 2000.0));
  EXPECT_DOUBLE_EQ(freed.memory_mb(), 1000.0);  // half of what the app gave
}

}  // namespace
}  // namespace defl
