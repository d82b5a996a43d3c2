// Package proto is the Ace protocol library: reusable coherence protocols
// that applications associate with spaces to match each data structure's
// access pattern (Raghavachari & Rogers, PPoPP 1997).
//
// The library contains, besides the runtime's built-in sequentially
// consistent invalidation protocol ("sc"):
//
//   - "null": no coherence actions at all. Correct only while every access
//     touches home-local data or data propagated beforehand; used for
//     phases with purely processor-local access (Water's intra-molecular
//     phase).
//   - "update": a dynamic update protocol. Writers need not acquire
//     exclusive ownership; each completed write is propagated through the
//     home to all registered sharers (Barnes-Hut bodies, EM3D).
//   - "staticupdate": builds sharer lists during the first iteration and
//     thereafter pushes each dirty region to exactly its sharers at
//     barriers — Falsafi et al.'s protocol for EM3D.
//   - "migratory": data migrates with exclusive ownership to each accessor;
//     suited to data used in bursts by one processor at a time.
//   - "pipeline": split-phase additive writes. Remote write sections
//     accumulate into a local scratch copy that is shipped home
//     asynchronously and combined element-wise (float64 sum); barriers
//     drain the pipeline (Water's inter-molecular force accumulation).
//   - "atomic": home-serialized read-modify-write sections; acquiring a
//     write section both queues for the region's home-side lock and
//     fetches the data in a single round trip (TSP's job counter).
//   - "homewrite": data written only by its home (creating) processor;
//     readers pull on demand and self-invalidate at barriers (Blocked
//     Sparse Cholesky).
//   - "writethrough": completed write sections ship the region home
//     split-phase; readers pull and self-invalidate at barriers.
//   - "racecheck": a data-race checking protocol in the spirit of Larus
//     et al.'s LCM — the paper's Section 2.1 example of why full access
//     control matters (handlers both before and after accesses).
//
// The protocols are assembled from the protocol building blocks the
// paper's Section 6 proposes (blocks.go): Fetcher, Drain, PushSink and
// SelfInvalidate, plus the runtime's per-space write log
// (core.Ctx.LogWrite and TakeWrites). Each coherence mechanism is
// written once there; a protocol file holds only what is particular to
// it.
//
// Each protocol's registry entry declares whether the compiler may
// optimize its calls and which invocation points are null handlers, as in
// the paper's system configuration file.
package proto

import "github.com/acedsm/ace/internal/core"

// Protocols returns the registry entries for every protocol in the
// library (excluding the built-in "sc", which every registry already has).
func Protocols() []core.Info {
	return []core.Info{
		NullInfo(),
		UpdateInfo(),
		StaticUpdateInfo(),
		MigratoryInfo(),
		PipelineInfo(),
		AtomicInfo(),
		HomeWriteInfo(),
		WriteThroughInfo(),
		RaceCheckInfo(),
	}
}

// RegisterAll registers the whole library with reg.
func RegisterAll(reg *core.Registry) error {
	for _, info := range Protocols() {
		if err := reg.Register(info); err != nil {
			return err
		}
	}
	return nil
}

// NewRegistry returns a registry containing "sc" plus the whole library.
func NewRegistry() *core.Registry {
	reg := core.NewRegistry()
	if err := RegisterAll(reg); err != nil {
		panic(err)
	}
	return reg
}
