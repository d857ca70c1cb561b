// Package faultinject is the fault-injection harness behind the chaos
// tests: named injection points compiled into the sampling lanes, the graph
// registry and the run scheduler, armed with fault behaviors (panic, sleep,
// error) by tests or via the GBC_FAULTS environment variable.
//
// The default build is fault-free and zero-cost: without the `faultinject`
// build tag, Enabled is the constant false, every call site is guarded by
// `if faultinject.Enabled` and the compiler deletes the whole branch — the
// hot paths (per-sample RNG reseed, per-chunk dispatch) pay nothing, and
// the zero-allocation budgets of the sampling pipeline hold unchanged.
// Building with `-tags faultinject` swaps in the real registry
// (enabled.go); faults still fire only once armed, so a tagged binary with
// no GBC_FAULTS and no Arm calls behaves identically to an untagged one.
package faultinject

// Injection point names. Constants live in this untagged file so call
// sites and tests compile under either build.
const (
	// SamplingChunkPanic fires in a sampling lane at the start of its
	// share of a growth chunk; an armed fault's error is panicked,
	// exercising the panic recovery path (*sampling.PanicError).
	SamplingChunkPanic = "sampling/chunk-panic"
	// SamplingChunkSlow fires in a sampling lane at the start of its share
	// of a growth chunk; the armed fault is expected to sleep, simulating a
	// straggler lane.
	SamplingChunkSlow = "sampling/chunk-slow"
	// SamplingReseed fires on every per-sample RNG reseed; an armed fault's
	// error is panicked, simulating RNG failure mid-chunk.
	SamplingReseed = "sampling/reseed"
	// RegistryEvictDuringSolve fires inside Entry.Solve after the entry
	// lock is taken; the chaos test arms it with a concurrent eviction of a
	// registry entry. A returned error fails the solve.
	RegistryEvictDuringSolve = "registry/evict-during-solve"
	// SchedulerQueueFull fires at the top of Scheduler.Do; a returned error
	// forces an ErrQueueFull rejection regardless of actual queue state.
	SchedulerQueueFull = "scheduler/queue-full"
	// SchedulerDrainDuringDequeue fires in a scheduler worker between
	// dequeuing a task and running it — the window a concurrent Shutdown
	// races against; the armed fault typically sleeps to widen it.
	SchedulerDrainDuringDequeue = "scheduler/drain-during-dequeue"
	// ShardEpochError fires in a shard worker's epoch handler before it
	// draws; a returned error answers the epoch request with 500,
	// exercising the coordinator's range-reassignment path.
	ShardEpochError = "shard/epoch-error"
	// ShardEpochSlow fires in a shard worker's epoch handler; the armed
	// fault is expected to sleep, simulating a stalled shard the
	// coordinator must route around.
	ShardEpochSlow = "shard/epoch-slow"
)
