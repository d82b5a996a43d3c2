// Command acenode runs one OS process's share of a multi-process Ace
// cluster: it hosts one (or a slice of) logical processor(s), discovers
// the other processes through the gossip membership layer, assembles
// the data-plane mesh over supervised TCP, and executes a workload
// SPMD with them.
//
// A 4-node cluster on loopback, one processor per process:
//
//	acenode -nodes 4 -local 0 -gossip 127.0.0.1:7946 -run em3d &
//	acenode -nodes 4 -local 1 -seeds 127.0.0.1:7946 -run em3d &
//	acenode -nodes 4 -local 2 -seeds 127.0.0.1:7946 -run em3d &
//	acenode -nodes 4 -local 3 -seeds 127.0.0.1:7946 -run em3d &
//
// The first process binds a known gossip port and seeds the rest;
// everything else — data-plane ports, membership, failure detection —
// is negotiated. Every local rank prints the cluster checksum, which
// matches the same workload on the in-process fabric bit for bit.
//
// em3d checkpoints and rejoins (DESIGN.md §13) when -ckpt names a
// checkpoint file prefix: every -ckpt-every steps each processor writes
// its snapshot (keeping the last two), and on startup the processes
// collectively agree — AllReduce(Min) over each rank's newest on-disk
// step — on the most recent checkpoint everyone holds, restore it, and
// replay from there. With -recover, a survivor that loses a peer
// mid-run tears its mesh down and re-Joins at the next recovery epoch
// instead of exiting; a SIGKILLed process is restarted by its
// supervisor with -rejoin -epoch <current>, and the cluster resumes
// from the agreed checkpoint (from step 0 without -ckpt) with a
// bit-identical result.
//
// Every flag is checked before anything binds a port or joins.
//
// Exit codes: 0 success, 1 usage or bootstrap failure, 2 workload
// error, 3 a peer was lost mid-run (ErrPeerLost — the failure
// detector's verdict surfaced through a failed synchronization wait)
// and -recover was not set.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/acedsm/ace"
	"github.com/acedsm/ace/internal/apps/em3d"
	"github.com/acedsm/ace/internal/core"
	"github.com/acedsm/ace/internal/rtiface"
)

func main() {
	var (
		nodes    = flag.Int("nodes", 0, "total logical processors in the cluster (required)")
		local    = flag.String("local", "", "comma-separated node ids this process hosts (required)")
		gossipAt = flag.String("gossip", "127.0.0.1:0", "gossip bind address (seed processes need a fixed port)")
		seeds    = flag.String("seeds", "", "comma-separated gossip addresses of peer processes")
		seed     = flag.Int64("seed", 0, "gossip RNG seed")
		interval = flag.Duration("interval", 50*time.Millisecond, "gossip round period")
		suspect  = flag.Duration("suspect", 0, "failure-detector suspicion threshold (default 20 intervals)")
		dead     = flag.Duration("dead", 0, "failure-detector death threshold (default 3x suspicion)")
		joinWait = flag.Duration("join-timeout", 30*time.Second, "bound on membership convergence")
		syncWait = flag.Duration("sync-timeout", 0, "bound on blocking synchronization waits (0 = forever)")
		run      = flag.String("run", "em3d", "workload: em3d | wait | hang")
		standAl  = flag.Bool("standalone", false, "skip gossip/TCP: run all nodes in this process on the in-process fabric (reference mode)")
		steps    = flag.Int("steps", 10, "em3d: simulation steps")
		size     = flag.Int("size", 256, "em3d: E and H vertices, each")
		protoF   = flag.String("proto", "", "em3d: protocol for the value spaces (empty = default)")
		appSeed  = flag.Int64("app-seed", 42, "em3d: workload seed")
		ckpt     = flag.String("ckpt", "", "em3d: checkpoint file prefix (empty = no checkpoints)")
		ckptEvry = flag.Int("ckpt-every", 2, "em3d: steps between collective checkpoints")
		epochF   = flag.Uint64("epoch", 0, "recovery epoch to join at (0 = fresh deployment)")
		rejoinF  = flag.Bool("rejoin", false, "rejoin a recovering cluster at -epoch (restarted member)")
		recoverF = flag.Bool("recover", false, "em3d: on peer loss, re-join at the next epoch and resume from checkpoint instead of exiting")
		stepDel  = flag.Duration("step-delay", 0, "em3d: sleep after every step (stretches the run for kill drills)")
	)
	flag.Parse()

	cfg := em3d.DefaultConfig()
	cfg.Steps, cfg.Nodes, cfg.Seed, cfg.Proto = *steps, *size, *appSeed, *protoF
	cfg.Elastic.Delay = *stepDel
	if *ckpt != "" {
		cfg.Elastic.Every = *ckptEvry
	}
	localIDs, err := validate(*nodes, *local, *standAl, *run, cfg, *ckpt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "acenode:", err)
		fmt.Fprintln(os.Stderr, "usage: acenode -nodes N (-local i[,j...] [-gossip addr] [-seeds a,b] | -standalone) [-run em3d|wait|hang]")
		os.Exit(1)
	}

	var seedList []string
	if *seeds != "" {
		seedList = strings.Split(*seeds, ",")
	}
	makeCluster := func(epoch uint64, rejoin bool) (*ace.Cluster, error) {
		if *standAl {
			return ace.NewCluster(ace.Options{Procs: *nodes, SyncTimeout: *syncWait})
		}
		cl, err := ace.Join(ace.NodeConfig{
			Nodes:        *nodes,
			Local:        localIDs,
			Gossip:       *gossipAt,
			Seeds:        seedList,
			Seed:         *seed,
			Interval:     *interval,
			SuspectAfter: *suspect,
			DeadAfter:    *dead,
			JoinTimeout:  *joinWait,
			Epoch:        epoch,
			Rejoin:       rejoin,
			OnResurrect: func(member int) {
				fmt.Printf("acenode: member %d resurrected (restarted with a fresh generation)\n", member)
			},
			Options: ace.Options{SyncTimeout: *syncWait},
		})
		if err == nil {
			fmt.Printf("acenode: joined as node(s) %s of %d (epoch %d)\n", *local, *nodes, epoch)
		}
		return cl, err
	}

	if *run == "em3d" {
		em3dMain(makeCluster, cfg, *ckpt, *epochF, *rejoinF, *recoverF)
		return
	}

	cl, err := makeCluster(*epochF, *rejoinF)
	if err != nil {
		fmt.Fprintln(os.Stderr, "acenode: cluster:", err)
		os.Exit(1)
	}
	defer cl.Close()

	switch *run {
	case "wait":
		// Membership only: hold the processors in a barrier so the
		// cluster stays assembled until every process reaches it (or a
		// peer is lost / the sync timeout fires).
		err = cl.Run(func(p *ace.Proc) error {
			p.GlobalBarrier()
			return nil
		})
	case "hang":
		// Join, then block forever without entering any synchronization
		// — the victim role in failure-detection drills: peers in -run
		// wait stay blocked at their barrier until this process is
		// killed and the gossip layer declares its nodes down.
		err = cl.Run(func(p *ace.Proc) error {
			select {}
		})
	}
	exitOn(err)
}

// validate checks every flag that can be checked before anything binds
// or joins, and returns the parsed -local ids (nil under -standalone).
// The em3d flags are checked only when em3d runs.
func validate(nodes int, local string, standalone bool, run string, cfg em3d.Config, ckpt string) ([]int, error) {
	var ids []int
	if !standalone {
		var err error
		if ids, err = parseIDs(local); err != nil {
			return nil, fmt.Errorf("-local: %v", err)
		}
	}
	_, known := ace.NewRegistry().Lookup(cfg.Proto)
	switch {
	case nodes <= 0:
		return nil, errors.New("-nodes must be positive")
	case run == "wait" || run == "hang":
		return ids, nil
	case run != "em3d":
		return nil, fmt.Errorf("unknown workload %q", run)
	case cfg.Proto != "" && !known:
		return nil, fmt.Errorf("unknown protocol %q", cfg.Proto)
	case cfg.Steps < 2:
		return nil, errors.New("-steps must be at least 2")
	case cfg.Nodes < nodes:
		return nil, errors.New("-size must be at least -nodes")
	case ckpt != "" && cfg.Elastic.Every < 1:
		return nil, errors.New("-ckpt-every must be at least 1 with -ckpt")
	}
	return ids, nil
}

// em3dMain runs EM3D, optionally looping through peer-loss recovery:
// tear down, re-Join at the next epoch, agree on the newest checkpoint
// every rank holds, restore, replay.
func em3dMain(makeCluster func(epoch uint64, rejoin bool) (*ace.Cluster, error),
	cfg em3d.Config, ckpt string, epoch uint64, rejoin, recov bool) {
	for {
		cl, err := makeCluster(epoch, rejoin)
		if err != nil {
			fmt.Fprintln(os.Stderr, "acenode: cluster:", err)
			os.Exit(1)
		}
		err = cl.Run(func(p *ace.Proc) error {
			pcfg := cfg
			el := &pcfg.Elastic
			if ckpt != "" {
				el.Save = func(ck *core.Checkpoint) error {
					return saveCheckpoint(ckpt, p.ID(), ck)
				}
				// Collective resume decision: the newest step every rank
				// has on disk (-1 where none). Keep-last-2 retention makes
				// the agreed step present everywhere — ranks are at most
				// one save apart, since saving step K happens before
				// entering the collectives that lead to step K+every.
				my := latestCheckpointStep(ckpt, p.ID())
				agreed := p.AllReduceInt64(ace.OpMin, my)
				if agreed >= 0 {
					ck, err := loadCheckpoint(ckpt, p.ID(), agreed)
					if err != nil {
						return err
					}
					el.Resume = ck
					fmt.Printf("acenode: node %d restored from checkpoint step=%d\n", p.ID(), agreed)
				}
			}
			res, err := em3d.Run(rtiface.NewAce(p), pcfg)
			if err != nil {
				return err
			}
			// Every rank prints: the checksum is an AllReduce, so the
			// lines must be bit-identical — including on a rank that
			// crashed and rejoined, which is the parity the smoke
			// script asserts.
			fmt.Printf("acenode: em3d checksum %.17g (%d steps, %d vertices)\n",
				res.Checksum, cfg.Steps, cfg.Nodes)
			return nil
		})
		cl.Close()
		if err != nil && errors.Is(err, ace.ErrPeerLost) && recov {
			epoch++
			rejoin = true
			fmt.Printf("acenode: peer lost; recovering at epoch %d\n", epoch)
			continue
		}
		exitOn(err)
		return
	}
}

func exitOn(err error) {
	if err == nil {
		fmt.Println("acenode: done")
		return
	}
	fmt.Fprintln(os.Stderr, "acenode: run:", err)
	if errors.Is(err, ace.ErrPeerLost) {
		os.Exit(3)
	}
	os.Exit(2)
}

// ckptFile names rank's checkpoint of one application step.
func ckptFile(prefix string, rank int, step int64) string {
	return fmt.Sprintf("%s.%d.%d", prefix, rank, step)
}

// saveCheckpoint atomically writes one checkpoint file (temp + rename,
// so a kill mid-write leaves no torn image behind) and prunes this
// rank's older files down to the last two steps.
func saveCheckpoint(prefix string, rank int, ck *core.Checkpoint) error {
	path := ckptFile(prefix, rank, int64(ck.App))
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, ace.EncodeCheckpoint(ck), 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	steps := checkpointSteps(prefix, rank)
	for len(steps) > 2 {
		os.Remove(ckptFile(prefix, rank, steps[0]))
		steps = steps[1:]
	}
	return nil
}

// checkpointSteps lists the steps of rank's on-disk checkpoints,
// ascending.
func checkpointSteps(prefix string, rank int) []int64 {
	matches, _ := filepath.Glob(fmt.Sprintf("%s.%d.*", prefix, rank))
	var steps []int64
	for _, m := range matches {
		suffix := m[strings.LastIndexByte(m, '.')+1:]
		n, err := strconv.ParseInt(suffix, 10, 64)
		if err != nil {
			continue // .tmp leftovers and strangers
		}
		steps = append(steps, n)
	}
	sort.Slice(steps, func(i, j int) bool { return steps[i] < steps[j] })
	return steps
}

// latestCheckpointStep returns the newest step rank has on disk, or -1.
func latestCheckpointStep(prefix string, rank int) int64 {
	steps := checkpointSteps(prefix, rank)
	if len(steps) == 0 {
		return -1
	}
	return steps[len(steps)-1]
}

// loadCheckpoint reads and decodes one checkpoint file.
func loadCheckpoint(prefix string, rank int, step int64) (*core.Checkpoint, error) {
	buf, err := os.ReadFile(ckptFile(prefix, rank, step))
	if err != nil {
		return nil, err
	}
	ck, err := ace.DecodeCheckpoint(buf)
	if err != nil {
		return nil, fmt.Errorf("acenode: checkpoint %s: %w", ckptFile(prefix, rank, step), err)
	}
	return ck, nil
}

func parseIDs(s string) ([]int, error) {
	if s == "" {
		return nil, errors.New("empty")
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad node id %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}
