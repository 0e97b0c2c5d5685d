package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"

	"sais/cluster"
	"sais/internal/scenario"
)

const (
	// defaultSeed is the seed the goldens are recorded at.
	defaultSeed = 1
	// setupRepeats is how many times set-up is repeated; setup_s is
	// their median.
	setupRepeats = 9
	// minTimedRuns keeps at least ten samples beyond run_ms_p90.
	minTimedRuns = 100
)

// goldens maps workload → run-config key → SHA-256 of the run's Result
// JSON at defaultSeed: the output lock.
type goldens map[string]map[string]string

// digest is the SHA-256 of a Result's JSON encoding. Result JSON is
// the repository's determinism contract: every simulated statistic is
// in it.
func digest(res *cluster.Result) (string, error) {
	b, err := json.Marshal(res)
	if err != nil {
		return "", fmt.Errorf("encoding result: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// strips is the run's payload in StripSize units, the benchmark's unit
// of work for reads and writes alike.
func strips(rc runConfig, res *cluster.Result) float64 {
	return float64(res.TotalBytes) / float64(rc.cfg.StripSize)
}

// setup is the state a workload's timed pass starts from.
type setup struct {
	rcs  []runConfig
	want map[string]string // expected digest per run-config key
}

// setUp loads and validates the workload's configs, then makes one
// untimed warm-up run of each. The warm-up digests are the reference
// every later run of the same config must reproduce; at defaultSeed
// they must also equal the goldens.
func setUp(w workload, seed uint64, tiny bool, gold goldens) (*setup, error) {
	rcs, err := w.build(seed, tiny)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	s := &setup{rcs: rcs, want: make(map[string]string, len(rcs))}
	for _, rc := range rcs {
		res, err := cluster.Run(rc.cfg)
		if err != nil {
			return nil, fmt.Errorf("%s/%s warm-up: %w", w.name, rc.key, err)
		}
		d, err := digest(res)
		if err != nil {
			return nil, err
		}
		s.want[rc.key] = d
	}
	if seed == defaultSeed && gold != nil {
		g, ok := gold[w.name]
		if !ok {
			return nil, fmt.Errorf("%s: no goldens recorded", w.name)
		}
		for _, rc := range rcs {
			want, ok := g[rc.key]
			if !ok {
				return nil, fmt.Errorf("%s/%s: no golden recorded", w.name, rc.key)
			}
			s.want[rc.key] = want
		}
	}
	return s, nil
}

// outcome is one attempted run.
type outcome struct {
	rc  runConfig
	res *cluster.Result
	err error
}

// pass is one closed-loop sequence of checked runs.
type pass struct {
	runs, failed int
	first        error
	ms           []float64     // host CPU milliseconds per cluster.Run
	inRun        time.Duration // host CPU time inside cluster.Run
	strips       float64       // strips completed by runs that passed
	// Heap allocations and collections inside cluster.Run calls.
	mallocs, allocBytes uint64
	gcs                 uint32
}

// loop calls run once per iteration, one run at a time, alternating
// over the workload's configs until budget has elapsed and at least
// minRuns runs are done, and adds the runs to p. Before each run it
// collects the heap, so every run starts from the same heap state and a
// run's time and allocations do not depend on where the previous run's
// garbage left the collector.
// Only the run call is timed, and MemStats are read just outside it, so
// the output checks that follow cost the measurement nothing.
//
// Times are the process's CPU time (user plus system, all threads, so
// concurrent GC work counts), not wall time: on a shared virtual
// machine wall time also counts the time the host ran someone else,
// which made per-run wall times of one seed vary by ±10% from one
// second to the next.
func (p *pass) loop(rcs []runConfig, budget time.Duration, minRuns int, run func(runConfig) (*cluster.Result, error), check func(outcome) error) {
	var m0, m1 runtime.MemStats
	start := time.Now()
	for i := 0; i < minRuns || time.Since(start) < budget; i++ {
		rc := rcs[i%len(rcs)]
		runtime.GC()
		runtime.ReadMemStats(&m0)
		t0 := cpuTime()
		res, err := run(rc)
		d := cpuTime() - t0
		runtime.ReadMemStats(&m1)
		p.runs++
		p.inRun += d
		p.ms = append(p.ms, float64(d.Nanoseconds())/1e6)
		p.mallocs += m1.Mallocs - m0.Mallocs
		p.allocBytes += m1.TotalAlloc - m0.TotalAlloc
		p.gcs += m1.NumGC - m0.NumGC
		if err := check(outcome{rc, res, err}); err != nil {
			p.failed++
			if p.first == nil {
				p.first = fmt.Errorf("%s: %w", rc.key, err)
			}
			continue
		}
		p.strips += strips(rc, res)
	}
}

// plainRuns adds timed-pass runs to p: plain cluster.Run, with no hook,
// span log or profiler, and every output checked against want.
func (p *pass) plainRuns(rcs []runConfig, want map[string]string, budget time.Duration, minRuns int) {
	p.loop(rcs, budget, minRuns,
		func(rc runConfig) (*cluster.Result, error) { return cluster.Run(rc.cfg) },
		func(o outcome) error { return checkRun(o, want[o.rc.key]) })
}

// setUpAndTime is the timed pass of a --trace 0 invocation. It sets the
// workload up setupRepeats times and follows each set-up with an equal
// share of the timed runs, so the set-ups sample the whole pass and
// their median, setup_s, does not hinge on one moment of host load.
// Every set-up must reach the same reference digests: set-up is
// deterministic too.
func setUpAndTime(w workload, opts options, budget time.Duration) (*pass, float64, error) {
	p := &pass{}
	secs := make([]float64, setupRepeats)
	var ref map[string]string
	for i := range secs {
		runtime.GC()
		start := time.Now()
		s, err := setUp(w, opts.seed, opts.tiny, opts.goldens)
		secs[i] = time.Since(start).Seconds()
		if err != nil {
			return nil, 0, err
		}
		for k, d := range s.want {
			if ref != nil && ref[k] != d {
				return nil, 0, fmt.Errorf("%s/%s: warm-up digest differs between set-ups", w.name, k)
			}
		}
		ref = s.want
		p.plainRuns(s.rcs, s.want, budget/setupRepeats, (minTimedRuns+setupRepeats-1)/setupRepeats)
	}
	return p, median(secs), nil
}

// checkRun is the output check every run passes through: no error, the
// expected Result digest, the result-level runtime invariants, and a
// complete, loss-free delivery of the offered payload.
func checkRun(o outcome, want string) error {
	if o.err != nil {
		return o.err
	}
	res := o.res
	got, err := digest(res)
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("result digest %.12s, want %.12s", got, want)
	}
	if vs := scenario.CheckInvariants(o.rc.cfg, res, nil); len(vs) > 0 {
		return fmt.Errorf("invariant %v", vs[0])
	}
	switch {
	case res.StripCount == 0 && !o.rc.cfg.WriteWorkload:
		return errors.New("no strips completed")
	case res.TotalBytes == 0:
		return errors.New("no payload moved")
	case res.Faults.FailedOps != 0 || res.Faults.PartialOps != 0:
		return fmt.Errorf("%d failed and %d partial ops", res.Faults.FailedOps, res.Faults.PartialOps)
	case res.Faults.GoodputBytes != res.Faults.OfferedBytes:
		return fmt.Errorf("goodput %v of %v offered", res.Faults.GoodputBytes, res.Faults.OfferedBytes)
	}
	return nil
}

// cpuTime is the CPU time the process has used so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail for RUSAGE_SELF
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMiB is the process's peak resident set size.
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the nearest-rank q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}
