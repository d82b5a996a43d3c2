package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"github.com/acedsm/ace/internal/faultnet"
)

// This file implements elastic membership: collective checkpoints of
// per-space region state and their restoration into a freshly set-up
// cluster.
//
// The recovery model is coordinated rollback plus re-execution. A
// cluster whose Run failed with ErrPeerLost is finished: the caller
// closes it. Recovery is a new cluster — the same deterministic setup,
// then RestoreCheckpoint on every processor and a GlobalBarrier — that
// re-executes the program from the last collective checkpoint's
// cursor. A collective round cannot be replayed by one processor alone
// (its peers' records of completed rounds are gone), which is why
// every processor rolls back, not only the lost one. Execution is
// deterministic (the SPMD programs the harness runs derive all values
// from seeds), so the re-executed run converges to bit-identical state,
// and the work replayed is bounded by the checkpoint's cursors, not
// the full history.

// CheckpointRegion is one home region's snapshot inside a Checkpoint.
type CheckpointRegion struct {
	ID    RegionID
	Space int
	Size  int
	Data  []byte
}

// Checkpoint is one processor's collectively-taken snapshot: the data
// of every region homed here, the per-space protocol bindings, and the
// cursors (collective sequence, allocation sequence, application step)
// that version it. Checkpoints taken by the same Proc.Checkpoint call
// on different processors share CollSeq and App, which is what makes a
// set of per-rank checkpoint files a consistent cut.
type Checkpoint struct {
	Rank    int    // processor that took the snapshot
	Procs   int    // cluster size at snapshot time
	CollSeq uint64 // collective sequence at snapshot time
	NextSeq uint64 // region allocation cursor
	App     uint64 // application-defined cursor (e.g. the step count)

	// Protos is the protocol name of each space, indexed by space id.
	Protos []string

	// Regions holds every region homed at Rank, sorted by id.
	Regions []CheckpointRegion
}

// Checkpoint takes a collective snapshot of every space. All
// processors must call it at the same program point with the same app
// cursor (verified). The sequence is ChangeProtocol's reset path:
// quiesce drives every live space to the base state (authoritative
// data at the home, no dirty cached copies, nothing in flight), and only
// then is the home data copied. A final barrier holds every processor
// until all snapshots are done, so no post-checkpoint write can race a
// copy.
func (p *Proc) Checkpoint(app uint64) (*Checkpoint, error) {
	sps := *p.spaces.Load()
	live := make([]*Space, 0, len(sps))
	for _, sp := range sps {
		if sp != nil { // nil: a freed slot awaiting reuse
			live = append(live, sp)
		}
	}
	if err := p.quiesce(fmt.Sprintf("ckpt:%d", app), live...); err != nil {
		return nil, err
	}

	ck := &Checkpoint{
		Rank:    int(p.id),
		Procs:   p.cl.Procs(),
		CollSeq: p.collSeq,
		App:     app,
		Protos:  make([]string, len(sps)), // a freed slot's entry stays ""
	}
	p.regMu.Lock()
	ck.NextSeq = p.nextSeq
	p.regMu.Unlock()
	for _, sp := range live {
		sp.eng.Lock()
		ck.Protos[sp.ID] = sp.ProtoName
		for _, r := range sp.regions {
			if !r.IsHome() {
				continue
			}
			data := make([]byte, r.Size)
			copy(data, r.Data)
			ck.Regions = append(ck.Regions, CheckpointRegion{
				ID: r.ID, Space: sp.ID, Size: r.Size, Data: data,
			})
		}
		sp.eng.Unlock()
	}
	sort.Slice(ck.Regions, func(i, j int) bool { return ck.Regions[i].ID < ck.Regions[j].ID })
	p.ctx.DefaultBarrier()
	return ck, nil
}

// RestoreCheckpoint installs ck's state into this processor: every
// region of every checkpointed space is reset to the base state (as a
// protocol change would), each space's protocol is re-instantiated to
// the recorded binding, and the home-region data is copied back in.
// The caller orchestrates the collective discipline: every processor
// of a new cluster restores a checkpoint of the same CollSeq/App, then
// all meet at a GlobalBarrier before any resumes execution.
//
// The region table itself is not recorded: the caller re-runs its
// deterministic setup first (GMalloc sequences restart at the same
// ids). A checkpointed region the table does not have — or has at the
// wrong size, or no longer homed here — fails the restore, which is
// how a stale or mismatched checkpoint is caught instead of poisoning
// the cluster.
func (p *Proc) RestoreCheckpoint(ck *Checkpoint) error {
	if ck == nil {
		return errors.New("core: restore of nil checkpoint")
	}
	if ck.Procs != p.cl.Procs() {
		return fmt.Errorf("core: checkpoint is for %d procs, cluster has %d", ck.Procs, p.cl.Procs())
	}
	if ck.Rank != int(p.id) {
		return fmt.Errorf("core: proc %d restoring checkpoint of rank %d", p.id, ck.Rank)
	}
	sps := *p.spaces.Load()
	if len(ck.Protos) != len(sps) {
		return fmt.Errorf("core: checkpoint names %d spaces, cluster has %d — re-run setup first",
			len(ck.Protos), len(sps))
	}
	for i, name := range ck.Protos {
		sp := sps[i]
		if name == "" {
			// Slot i was freed at snapshot time; it must still be free (the
			// caller re-ran the same deterministic setup).
			if sp != nil {
				return fmt.Errorf("core: checkpoint has space %d freed, cluster has it live — re-run setup first", i)
			}
			continue
		}
		if sp == nil {
			return fmt.Errorf("core: checkpoint names space %d, cluster has the slot freed — re-run setup first", i)
		}
		info, ok := p.cl.reg.Lookup(name)
		if !ok {
			return fmt.Errorf("core: checkpoint protocol %q not registered", name)
		}
		sp.eng.Lock()
		for _, r := range sp.regions {
			resetRegion(r)
			// Lock state is not checkpointed: restore frees every lock.
			if r.Dir != nil {
				r.Dir.lockMu.Lock()
				r.Dir.LockHolder = -1
				r.Dir.LockQueue = nil
				r.Dir.lockMu.Unlock()
			}
		}
		p.reinstall(sp, info)
		sp.eng.Unlock()
	}
	for _, cr := range ck.Regions {
		r := p.ctx.Region(cr.ID)
		if r == nil {
			return fmt.Errorf("core: proc %d: checkpointed region %v missing — setup mismatch", p.id, cr.ID)
		}
		if !r.IsHome() {
			return fmt.Errorf("core: proc %d: checkpointed region %v no longer homed here", p.id, cr.ID)
		}
		if r.Size != cr.Size || len(cr.Data) != cr.Size {
			return fmt.Errorf("core: proc %d: checkpointed region %v size %d, local %d", p.id, cr.ID, cr.Size, r.Size)
		}
		sp := r.Space
		sp.eng.Lock()
		copy(r.Data, cr.Data)
		sp.eng.Unlock()
	}
	p.regMu.Lock()
	if p.nextSeq < ck.NextSeq {
		p.nextSeq = ck.NextSeq
	}
	p.regMu.Unlock()
	return nil
}

// ckptMagic versions the checkpoint wire format. It changes with every
// layout change, so a file in an older layout (ACK1) fails the magic
// check rather than being misparsed.
const ckptMagic uint32 = 0x41434b32 // "ACK2"

// EncodeCheckpoint renders ck in the versioned binary checkpoint
// format (little-endian):
//
//	magic u32, procs u32, rank u32, spaces u32,
//	collseq u64, nextseq u64, app u64,
//	per space: nameLen u32 + name bytes,
//	nregions u32, per region: id u64, space u32, size u32, data bytes.
func EncodeCheckpoint(ck *Checkpoint) []byte {
	size := 4*4 + 3*8
	for _, name := range ck.Protos {
		size += 4 + len(name)
	}
	size += 4
	for _, cr := range ck.Regions {
		size += 8 + 4 + 4 + len(cr.Data)
	}
	buf := make([]byte, 0, size)
	u32 := func(v uint32) { buf = binary.LittleEndian.AppendUint32(buf, v) }
	u64 := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
	u32(ckptMagic)
	u32(uint32(ck.Procs))
	u32(uint32(ck.Rank))
	u32(uint32(len(ck.Protos)))
	u64(ck.CollSeq)
	u64(ck.NextSeq)
	u64(ck.App)
	for _, name := range ck.Protos {
		u32(uint32(len(name)))
		buf = append(buf, name...)
	}
	u32(uint32(len(ck.Regions)))
	for _, cr := range ck.Regions {
		u64(uint64(cr.ID))
		u32(uint32(cr.Space))
		u32(uint32(cr.Size))
		buf = append(buf, cr.Data...)
	}
	return buf
}

// DecodeCheckpoint parses the binary checkpoint format, rejecting
// truncated or malformed input with an error (never a panic): a
// half-written checkpoint file must fail a rejoin loudly, not poison
// the cluster with partial state.
func DecodeCheckpoint(buf []byte) (*Checkpoint, error) {
	off := 0
	u32 := func() (uint32, error) {
		if off+4 > len(buf) {
			return 0, fmt.Errorf("core: truncated checkpoint at byte %d of %d", off, len(buf))
		}
		v := binary.LittleEndian.Uint32(buf[off:])
		off += 4
		return v, nil
	}
	u64 := func() (uint64, error) {
		if off+8 > len(buf) {
			return 0, fmt.Errorf("core: truncated checkpoint at byte %d of %d", off, len(buf))
		}
		v := binary.LittleEndian.Uint64(buf[off:])
		off += 8
		return v, nil
	}
	magic, err := u32()
	if err != nil {
		return nil, err
	}
	if magic != ckptMagic {
		return nil, fmt.Errorf("core: bad checkpoint magic %#x", magic)
	}
	var ck Checkpoint
	procs, err := u32()
	if err != nil {
		return nil, err
	}
	rank, err := u32()
	if err != nil {
		return nil, err
	}
	nspaces, err := u32()
	if err != nil {
		return nil, err
	}
	if procs == 0 || procs > MaxProcs || rank >= procs || nspaces > 1<<16 {
		return nil, fmt.Errorf("core: implausible checkpoint header: procs %d rank %d spaces %d", procs, rank, nspaces)
	}
	ck.Procs, ck.Rank = int(procs), int(rank)
	if ck.CollSeq, err = u64(); err != nil {
		return nil, err
	}
	if ck.NextSeq, err = u64(); err != nil {
		return nil, err
	}
	if ck.App, err = u64(); err != nil {
		return nil, err
	}
	ck.Protos = make([]string, nspaces)
	for i := range ck.Protos {
		n, err := u32()
		if err != nil {
			return nil, err
		}
		if off+int(n) > len(buf) || n > 1<<10 {
			return nil, fmt.Errorf("core: truncated checkpoint protocol name at byte %d", off)
		}
		ck.Protos[i] = string(buf[off : off+int(n)])
		off += int(n)
	}
	nregions, err := u32()
	if err != nil {
		return nil, err
	}
	for i := uint32(0); i < nregions; i++ {
		id, err := u64()
		if err != nil {
			return nil, err
		}
		space, err := u32()
		if err != nil {
			return nil, err
		}
		size, err := u32()
		if err != nil {
			return nil, err
		}
		if space >= nspaces {
			return nil, fmt.Errorf("core: checkpoint region %v names unknown space %d", RegionID(id), space)
		}
		if off+int(size) > len(buf) {
			return nil, fmt.Errorf("core: truncated checkpoint region data at byte %d of %d", off, len(buf))
		}
		data := make([]byte, size)
		copy(data, buf[off:off+int(size)])
		off += int(size)
		ck.Regions = append(ck.Regions, CheckpointRegion{
			ID: RegionID(id), Space: int(space), Size: int(size), Data: data,
		})
	}
	if off != len(buf) {
		return nil, fmt.Errorf("core: %d trailing bytes after checkpoint", len(buf)-off)
	}
	return &ck, nil
}

// FaultNet returns the fault-injection wrapper around the cluster's
// network, or nil when the cluster runs without Options.Faults. Chaos
// harnesses use it to Kill a peer mid-run; the killed cluster is then
// closed, and a rejoin drill restores into a new one.
func (c *Cluster) FaultNet() *faultnet.Network {
	fn, _ := c.net.(*faultnet.Network)
	return fn
}
