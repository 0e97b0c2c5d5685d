// Package workload generates the IOR-like access pattern of the
// paper's evaluation: N application processes, each pinned to a core,
// each performing synchronous sequential reads of a fixed transfer size
// over its file until a byte budget is exhausted — with the added
// per-request compute ("encrypt") that the client's cost model charges.
package workload

import (
	"fmt"

	"sais/internal/client"
	"sais/internal/collective"
	"sais/internal/pfs"
	"sais/internal/rng"
	"sais/internal/sim"
	"sais/internal/units"
)

// IORConfig describes one client's process set.
type IORConfig struct {
	Procs        int         // application processes on the client
	TransferSize units.Bytes // bytes per read()/write() call
	BytesPerProc units.Bytes // total bytes each process transfers
	FirstFile    pfs.FileID  // process i uses FirstFile + i
	FirstCore    int         // process i is pinned to (FirstCore+i) mod cores
	Stagger      units.Time  // start offset between processes
	Write        bool        // run the write workload instead of reads
	// RandomAccess permutes each process's transfer order (IOR's random
	// option), defeating server-side readahead. Seed controls the
	// permutation.
	RandomAccess bool
	// Segmented selects IOR's shared-file segmented layout: all
	// processes read ONE file (FirstFile) in which transfer k of
	// process i lives at offset (k*Procs + i) * TransferSize — the
	// interleaving that makes per-process streams stride across the
	// file. Default: one private file per process, contiguous.
	Segmented bool
	// ThinkTime inserts a fixed delay between a process's transfers
	// (IOR's inter-test delay, -d) — a knob for duty-cycle studies.
	ThinkTime units.Time
	// Aggregators > 0 switches to MPI-IO-style collective reads: each
	// round, the processes read one shared-file stripe of
	// Procs×TransferSize bytes through that many aggregators (two-phase
	// I/O), instead of issuing independent transfers.
	Aggregators int
	Seed        uint64
}

// Validate checks the workload is runnable.
func (c IORConfig) Validate() error {
	switch {
	case c.Procs <= 0:
		return fmt.Errorf("workload: procs %d must be positive", c.Procs)
	case c.TransferSize <= 0:
		return fmt.Errorf("workload: transfer size must be positive")
	case c.BytesPerProc < c.TransferSize:
		return fmt.Errorf("workload: per-proc bytes %v below one transfer %v", c.BytesPerProc, c.TransferSize)
	case c.Stagger < 0:
		return fmt.Errorf("workload: negative stagger")
	case c.ThinkTime < 0:
		return fmt.Errorf("workload: negative think time")
	case c.Aggregators < 0:
		return fmt.Errorf("workload: negative aggregator count")
	case c.Aggregators > 0 && c.Write:
		return fmt.Errorf("workload: collective mode implements reads only")
	}
	return nil
}

// Transfers returns the number of read() calls each process makes.
func (c IORConfig) Transfers() int {
	return int(c.BytesPerProc / c.TransferSize)
}

// IOR drives the processes of one client node.
type IOR struct {
	cfg       IORConfig
	node      *client.Node
	remaining int
	finished  units.Time
	onDone    sim.Event
	perProc   []units.Time // completion time of each process
}

// NewIOR builds the workload over node. onDone (optional) fires when
// every process has consumed its full byte budget.
func NewIOR(node *client.Node, cfg IORConfig, onDone sim.Event) (*IOR, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &IOR{
		cfg:     cfg,
		node:    node,
		onDone:  onDone,
		perProc: make([]units.Time, cfg.Procs),
	}, nil
}

// Start schedules the process loops on eng beginning at the current
// time.
func (w *IOR) Start(eng *sim.Engine) {
	if w.cfg.Aggregators > 0 {
		w.startCollective(eng)
		return
	}
	w.remaining = w.cfg.Procs
	cores := w.node.Config().Cores
	for i := 0; i < w.cfg.Procs; i++ {
		core := (w.cfg.FirstCore + i) % cores
		p := w.node.NewProc(i, core)
		r := &procLoop{w: w, eng: eng, i: i, file: w.cfg.FirstFile + pfs.FileID(i), op: p.Read}
		if w.cfg.Segmented {
			r.file = w.cfg.FirstFile
		}
		if w.cfg.Write {
			r.op = p.Write
		}
		// order[k] is the transfer index of the k-th request: identity
		// for sequential IOR, a seeded permutation for random mode.
		r.order = make([]int, w.cfg.Transfers())
		for k := range r.order {
			r.order[k] = k
		}
		if w.cfg.RandomAccess {
			rnd := rng.New(rng.Derive(w.cfg.Seed, uint64(i)))
			rnd.Shuffle(len(r.order), func(a, b int) { r.order[a], r.order[b] = r.order[b], r.order[a] })
		}
		r.issued, r.transferred = r.issue, r.done
		eng.After(units.Time(i)*w.cfg.Stagger, r.issued)
	}
}

// procLoop is one process's transfer loop. Its continuations are
// bound once, when the loop is built, and read the transfer index k
// when they fire, so moving from one transfer to the next allocates
// nothing.
type procLoop struct {
	w     *IOR
	eng   *sim.Engine
	i     int
	file  pfs.FileID
	op    func(pfs.FileID, units.Bytes, units.Bytes, sim.Event)
	order []int
	// k is the index of the next transfer to issue.
	k int
	// issued is r.issue and transferred is r.done.
	issued, transferred sim.Event
}

// issue starts transfer k.
func (r *procLoop) issue(units.Time) {
	k := r.k
	r.k++
	off := units.Bytes(r.order[k]) * r.w.cfg.TransferSize
	if r.w.cfg.Segmented {
		off = units.Bytes(r.order[k]*r.w.cfg.Procs+r.i) * r.w.cfg.TransferSize
	}
	r.op(r.file, off, r.w.cfg.TransferSize, r.transferred)
}

// done runs when a transfer completes: the process issues the next one
// after its think time, or finishes.
func (r *procLoop) done(now units.Time) {
	w := r.w
	if r.k >= len(r.order) {
		w.perProc[r.i] = now
		w.remaining--
		if w.remaining == 0 {
			w.finished = now
			if w.onDone != nil {
				w.onDone(now)
			}
		}
		return
	}
	if w.cfg.ThinkTime > 0 {
		r.eng.After(w.cfg.ThinkTime, r.issued)
	} else {
		r.issue(now)
	}
}

// Finished returns the completion time of the last process (zero while
// running).
func (w *IOR) Finished() units.Time { return w.finished }

// ProcFinished returns the completion time of process i.
func (w *IOR) ProcFinished(i int) units.Time { return w.perProc[i] }

// TotalBytes returns the byte budget across all processes.
func (w *IOR) TotalBytes() units.Bytes {
	return units.Bytes(w.cfg.Procs*w.cfg.Transfers()) * w.cfg.TransferSize
}

// startCollective runs the workload as rounds of two-phase collective
// reads: round k covers the shared-file stripe
// [k*Procs*TransferSize, (k+1)*Procs*TransferSize), with process i
// owning the i-th transfer of the stripe. All processes advance in
// lockstep, as MPI-IO collectives do.
func (w *IOR) startCollective(eng *sim.Engine) {
	w.remaining = 1
	procs := make([]*client.Proc, w.cfg.Procs)
	cores := w.node.Config().Cores
	for i := range procs {
		procs[i] = w.node.NewProc(i, (w.cfg.FirstCore+i)%cores)
	}
	rounds := w.cfg.Transfers()
	cfg := collective.Config{Aggregators: w.cfg.Aggregators}
	var round func(k int) func(*collective.Result)
	round = func(k int) func(*collective.Result) {
		return func(*collective.Result) {
			now := eng.Now()
			if k >= rounds {
				for i := range procs {
					w.perProc[i] = now
				}
				w.remaining = 0
				w.finished = now
				if w.onDone != nil {
					w.onDone(now)
				}
				return
			}
			stripe := units.Bytes(w.cfg.Procs) * w.cfg.TransferSize
			err := collective.Read(eng, w.node, procs, w.cfg.FirstFile,
				units.Bytes(k)*stripe, w.cfg.TransferSize, cfg,
				round(k+1))
			if err != nil {
				panic(fmt.Sprintf("workload: collective: %v", err))
			}
		}
	}
	eng.Immediately(func(units.Time) { round(0)(nil) })
}
