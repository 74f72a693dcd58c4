// A working mini data-parallel engine with Spark's execution semantics, run
// on the discrete-event simulator against the hypervisor VM model:
//   * RDD lineage chains are decomposed into BSP stages at shuffle (wide) and
//     cache boundaries; a stage's tasks run in waves over executor slots;
//   * every stage output is materialized on the executor that computed it;
//     losing an executor loses its shuffle files and cached blocks, and any
//     future consumer triggers recursive lineage recomputation;
//   * each worker VM hosts one single-slot executor per vCPU (the paper's
//     deployment); task speed reflects the VM's EffectiveAllocation --
//     CPU multiplexing (with lock-holder preemption) and memory
//     overcommitment (swap stalls) slow tasks down, so stragglers under
//     VM-level deflation are emergent, not scripted;
//   * self-deflation kills executors (tasks die, outputs are lost) and
//     returns their resources; synchronous (DNN) workloads roll back to the
//     last checkpoint when any task is killed;
//   * preemption removes a whole VM.
//
// The paper's running-time models (Equations 1-3) live in policy.h and are
// used only to *decide*; everything measured comes from executing the DAG.
#ifndef SRC_SPARK_ENGINE_H_
#define SRC_SPARK_ENGINE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "src/hypervisor/overcommit.h"
#include "src/hypervisor/vm.h"
#include "src/sim/simulator.h"
#include "src/spark/policy.h"
#include "src/spark/workload.h"
#include "src/telemetry/telemetry.h"

namespace defl {

class SparkEngine {
 public:
  struct Config {
    // Fraction of VM memory given to executors (spark.executor.memory).
    double executor_mem_fraction = 0.6;
    // Task slowdown = 1 + swap_task_penalty * swap_hit_fraction.
    double swap_task_penalty = 4.0;
    double page_zipf_s = 0.95;
    // Fraction of blindly reclaimed residency that host paging keeps on the
    // right pages (see BlindPagingWasteMb).
    double hv_paging_efficiency = 0.8;
    // Shared-resource contention (memory bandwidth, JVM GC): a task runs
    // (spec_cpus / active_tasks)^gamma faster when fewer tasks share the
    // worker. This is why killing half the executors costs less than 2x
    // (K-means self-deflation in Figure 6b is ~1.4x, not 2x).
    double contention_gamma = 0.2;
    OvercommitCosts costs;
  };

  struct TaskCompletion {
    double time = 0.0;
    int stage = 0;
    double records = 0.0;
  };

  // `workers` are the worker VMs (the driver runs on a separate high-priority
  // VM and is never deflated, per Section 4.1). VMs are borrowed, not owned.
  SparkEngine(Simulator* sim, SparkWorkload workload, std::vector<Vm*> workers);
  SparkEngine(Simulator* sim, SparkWorkload workload, std::vector<Vm*> workers,
              const Config& config);

  // Schedules the first wave of tasks; call once, then run the simulator.
  void Start();

  bool done() const { return done_; }
  double finish_time() const { return finish_time_; }

  // --- Deflation integration ---

  // Recomputes in-flight task speeds after any VM allocation change
  // (VM-level deflation or reinflation).
  void OnAllocationChanged();

  // Application-level deflation of one worker: kills enough single-slot
  // executors to cover the CPU/memory target; their running tasks die and
  // their stored outputs are lost. Returns the resources actually freed.
  ResourceVector SelfDeflateVm(VmId id, const ResourceVector& target);

  // Restores previously self-deflated executors (fresh, with empty stores)
  // after reinflation returned `added` resources to the VM.
  void ReinflateVm(VmId id, const ResourceVector& added);

  // Preemption baseline: the VM is gone; all its executors and outputs die.
  void PreemptVm(VmId id);

  // --- Driver metrics (inputs to the Section 4.1 policy) ---

  // Fraction of total job cost completed at least once (the paper's c).
  double Progress() const;
  // Cost fraction of shuffle (wide-input) stages: the r heuristic.
  double SyncCostFraction() const;
  // True when the currently executing stage is a shuffle.
  bool ShuffleImminent() const;
  // Convenience: assembles policy inputs from the live engine state.
  SparkPolicyInputs MakePolicyInputs(const std::vector<double>& deflation_fractions) const;

  // --- Introspection ---
  const SparkWorkload& workload() const { return workload_; }
  int64_t tasks_completed() const { return static_cast<int64_t>(completion_log_.size()); }
  int64_t tasks_killed() const { return tasks_killed_; }
  int64_t rollbacks() const { return rollbacks_; }
  int64_t recomputed_tasks() const { return recomputed_tasks_; }
  const std::vector<TaskCompletion>& completion_log() const { return completion_log_; }
  int AliveExecutors(VmId id) const;
  std::vector<Vm*> worker_vms() const;

  // Publishes task-kill / rollback / completion telemetry (nullptr detaches).
  void AttachTelemetry(TelemetryContext* telemetry);
  TelemetryContext* telemetry() const { return telemetry_; }
  // Guest-OS memory footprint of a worker: base system usage plus the live
  // executors' shares (for agent/guest accounting).
  double WorkerFootprintMb(VmId id) const;

 private:
  // One stage = a chain of narrow, uncached RDDs ending at a materialization
  // point (shuffle write or cache).
  struct Stage {
    std::vector<RddId> members;
    RddId output_rdd = -1;
    int input_stage = -1;   // stage producing our primary input, -1 for sources
    int input_stage2 = -1;  // join/cogroup second input (always wide), -1 if none
    bool wide_input = false;
    int num_partitions = 0;
    double cost_per_task = 0.0;
    double records_per_task = 0.0;
  };

  enum class OutputState : uint8_t { kMissing, kStored, kDurable };

  struct ExecutorId {
    VmId vm;
    int slot;
    auto operator<=>(const ExecutorId&) const = default;
  };

  struct Executor {
    ExecutorId id;
    bool alive = true;
    // (stage, partition) outputs stored here.
    std::set<std::pair<int, int>> stored;
  };

  struct RunningTask {
    int stage = 0;
    int partition = 0;
    ExecutorId executor;
    double work_left = 0.0;
    double speed = 1.0;
    double segment_start = 0.0;
    EventHandle event;
  };

  struct Worker {
    Vm* vm = nullptr;
    std::vector<Executor> executors;
    int AliveCount() const;
  };

  void BuildStages();
  Worker* FindWorker(VmId id);
  const Worker* FindWorker(VmId id) const;

  // Per-task execution speed on a worker given its current allocation and
  // number of concurrently running tasks.
  double TaskSpeed(const Worker& worker, int active_tasks) const;
  double WorkerActiveTasks(VmId id) const;
  void RefreshSpeeds(VmId id);

  // Marks missing inputs of pending partitions as pending in their producer
  // stages (recursive lineage repair). Returns true if anything was added.
  void EnsureInputsPending();
  bool InputsAvailable(int stage, int partition) const;
  bool StageOutputAvailable(int stage, int partition) const;
  void MarkOutput(int stage, int partition, const ExecutorId& executor);
  void InvalidateOutputsOn(const ExecutorId& executor);

  void Dispatch();
  void StartTask(int stage, int partition, Worker& worker, int slot);
  void FinishTask(size_t running_index);
  void KillTasksOn(const ExecutorId& executor);
  void OnTaskKilled();  // synchronous-job rollback hook
  void RollbackToCheckpoint();
  void MaybeCheckpoint(int completed_stage);

  Simulator* sim_;
  SparkWorkload workload_;
  Config config_;
  std::vector<Worker> workers_;
  std::vector<Stage> stages_;

  // outputs_[stage][partition]: where/if the output lives. When kStored, the
  // executor is found via its `stored` set; durable outputs live on stable
  // storage and survive executor loss.
  std::vector<std::vector<OutputState>> outputs_;
  std::vector<std::set<int>> pending_;             // partitions to (re)compute
  std::vector<std::vector<char>> ever_completed_;  // for progress accounting

  std::vector<RunningTask> running_;
  bool started_ = false;
  bool done_ = false;
  double finish_time_ = 0.0;
  double progress_cost_done_ = 0.0;
  double total_cost_ = 0.0;
  int last_durable_stage_ = -1;  // checkpoint frontier
  int stages_since_checkpoint_ = 0;
  bool checkpoint_in_progress_ = false;

  int64_t tasks_killed_ = 0;
  int64_t rollbacks_ = 0;
  int64_t recomputed_tasks_ = 0;
  std::vector<TaskCompletion> completion_log_;

  TelemetryContext* telemetry_ = nullptr;
  struct {
    CounterHandle tasks_completed;
    CounterHandle tasks_killed;
    CounterHandle rollbacks;
    CounterHandle recomputed_tasks;
  } metrics_;
};

}  // namespace defl

#endif  // SRC_SPARK_ENGINE_H_
