package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"time"

	"sais/cluster"
	"sais/internal/scenario"
	"sais/internal/trace"
	"sais/internal/units"
)

const (
	// minUntracedRuns and minTracedRuns bound the passes of a traced
	// invocation from below when the budget is short.
	minUntracedRuns = 10
	minTracedRuns   = 4
	// shardPairs is how many single-engine/sharded run pairs the shard
	// probe alternates.
	shardPairs = 3
)

// tracedStats is what the traced pass observed.
type tracedStats struct {
	*pass
	peakLive int
	// firsts holds the first passing run of each config, and fired the
	// events it fired (as of its last progress poll, every 64 events).
	firsts []outcome
	fired  []uint64
	// phase holds the simulated span durations of the first runs.
	phase   [trace.NumPhases][]float64
	profile []byte
}

// tracedPassRun is the traced pass: cluster.RunSpanned with a progress
// hook, the full runtime invariant suite on every run, and a CPU
// profile of the whole pass.
func tracedPassRun(rcs []runConfig, want map[string]string, budget time.Duration, minRuns int) (*tracedStats, error) {
	ts := &tracedStats{pass: &pass{}}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, fmt.Errorf("starting CPU profile: %w", err)
	}
	var (
		log   *trace.SpanLog
		fired uint64
		seen  = map[string]bool{}
	)
	spanned := func(rc runConfig) (*cluster.Result, error) {
		cfg := rc.cfg
		cfg.Progress = func(f uint64, live int, _ units.Time) {
			fired = f
			ts.peakLive = max(ts.peakLive, live)
		}
		res, l, err := cluster.RunSpanned(cfg)
		log = l
		return res, err
	}
	check := func(o outcome) error {
		if err := checkRun(o, want[o.rc.key]); err != nil {
			return err
		}
		if vs := scenario.CheckInvariants(o.rc.cfg, o.res, log); len(vs) > 0 {
			return fmt.Errorf("traced: invariant %v", vs[0])
		}
		if !seen[o.rc.key] {
			seen[o.rc.key] = true
			ts.firsts = append(ts.firsts, o)
			ts.fired = append(ts.fired, fired)
			for _, s := range log.Spans() {
				ts.phase[s.Phase] = append(ts.phase[s.Phase], float64(s.End-s.Start)/float64(units.Microsecond))
			}
		}
		return nil
	}
	ts.loop(rcs, budget, minRuns, spanned, check)
	pprof.StopCPUProfile()
	ts.profile = prof.Bytes()
	return ts, nil
}

// shardStats is the layout probe: the workload's first config re-run
// at two shards on two worker goroutines.
type shardStats struct {
	rounds, fired uint64
	wallRatio     float64 // sharded wall / single-engine wall
	runs, failed  int
	first         error
}

func shardProbe(rc runConfig, want string) *shardStats {
	st := &shardStats{}
	sharded := rc
	sharded.cfg.Shards, sharded.cfg.Workers = 2, 2
	record := func(o outcome) bool {
		st.runs++
		if err := checkRun(o, want); err != nil {
			st.failed++
			if st.first == nil {
				st.first = fmt.Errorf("%s at 2 shards: %w", rc.key, err)
			}
			return false
		}
		return true
	}
	// Progress fires once per barrier round on a sharded run.
	counted := sharded.cfg
	counted.Progress = func(f uint64, _ int, _ units.Time) {
		st.rounds++
		st.fired = f
	}
	res, err := cluster.Run(counted)
	if !record(outcome{sharded, res, err}) {
		return st
	}
	var single, multi []float64
	for i := 0; i < shardPairs; i++ {
		for _, c := range []runConfig{rc, sharded} {
			runtime.GC()
			t0 := time.Now()
			res, err := cluster.Run(c.cfg)
			d := time.Since(t0).Seconds()
			if !record(outcome{c, res, err}) {
				return st
			}
			if c.cfg.Shards > 1 {
				multi = append(multi, d)
			} else {
				single = append(single, d)
			}
		}
	}
	st.wallRatio = median(multi) / median(single)
	return st
}

// tracedRun is a --trace 1 invocation: set-up, an untraced pass, the
// traced pass, the layer drivers and the shard probe. It returns the
// per-layer metrics.
func tracedRun(wl workload, opts options, budget time.Duration, w io.Writer) (*report, error) {
	s, err := setUp(wl, opts.seed, opts.tiny, opts.goldens)
	if err != nil {
		return nil, err
	}
	untraced := &pass{}
	untraced.plainRuns(s.rcs, s.want, budget*35/100, minUntracedRuns)
	ts, err := tracedPassRun(s.rcs, s.want, budget*35/100, minTracedRuns)
	if err != nil {
		return nil, err
	}
	probe := shardProbe(s.rcs[0], s.want[s.rcs[0].key])
	failed := untraced.failed + ts.failed + probe.failed
	attempted := untraced.runs + ts.runs + probe.runs
	for _, err := range []error{untraced.first, ts.first, probe.first} {
		if err != nil {
			fmt.Fprintf(w, "FAIL %v\n", err)
		}
	}
	fmt.Fprintf(w, "runs untraced=%d traced=%d shard-probe=%d failed_run_frac=%g\n",
		untraced.runs, ts.runs, probe.runs, float64(failed)/float64(attempted))
	if len(ts.firsts) == 0 {
		return nil, fmt.Errorf("%s: no traced run passed its checks", wl.name)
	}
	samples, err := decodeProfile(ts.profile)
	if err != nil {
		return nil, err
	}
	m := layerMetrics(untraced, ts, probe, hostShares(samples))
	if err := driverMetrics(m, s.rcs, ts.peakLive); err != nil {
		return nil, err
	}
	return &report{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// layerMetrics derives the per-layer metrics read from the passes: the
// simulated statistics of the traced runs (locked by the output check)
// and the host-side shares, event costs and GC counts.
func layerMetrics(untraced *pass, ts *tracedStats, probe *shardStats, shares map[string]float64) map[string]metric {
	var (
		n, events, interrupts, hinted, remote, retries, drops float64
		util, nicBusy, srvBusy, diskBusy, missRate, stripP99  float64
		bgOffered, bgServed                                   float64
	)
	for i, o := range ts.firsts {
		r := o.res
		n += strips(o.rc, r)
		events += float64(ts.fired[i])
		interrupts += float64(r.Interrupts)
		hinted += float64(r.HintedIRQs)
		remote += float64(r.RemoteLines)
		retries += float64(r.Retries)
		drops += float64(r.Faults.FramesDropped)
		util += r.CPUUtilization
		nicBusy += r.ClientNICBusy
		srvBusy += r.ServerCPUBusy
		diskBusy += r.DiskBusy
		missRate += r.CacheMissRate
		stripP99 += float64(r.StripLatencyP99) / float64(units.Microsecond)
		bgOffered += float64(r.BackgroundOfferedBytes)
		bgServed += float64(r.BackgroundServedBytes)
	}
	k := float64(len(ts.firsts))
	untracedPerRun := untraced.inRun.Seconds() / float64(untraced.runs)
	tracedPerRun := ts.inRun.Seconds() / float64(ts.runs)
	p50 := func(ph trace.Phase) float64 { return median(ts.phase[ph]) }
	m := map[string]metric{
		"sim.events_per_strip": {events / n, "events/strip"},
		"sim.ns_per_event":     {untracedPerRun * 1e9 / (events / k), "ns"},
		"sim.peak_live":        {float64(ts.peakLive), "events"},

		"cpu.util": {util / k, "frac"},

		"irqsched.irqs_per_strip": {interrupts / n, "irqs/strip"},
		"irqsched.hinted_frac":    {ratio(hinted, interrupts), "frac"},
		"apic.steer_us_p50":       {p50(trace.PhaseSteer), "us"},

		"netsim.fabric_us_p50":  {p50(trace.PhaseFabric), "us"},
		"netsim.ring_us_p50":    {p50(trace.PhaseRing), "us"},
		"netsim.nic_busy":       {nicBusy / k, "frac"},
		"netsim.frames_dropped": {drops / k, "frames/run"},

		"pfs.service_us_p50":  {p50(trace.PhaseService), "us"},
		"pfs.server_cpu_busy": {srvBusy / k, "frac"},

		"disk.busy": {diskBusy / k, "frac"},

		"cache.miss_rate":              {missRate / k, "frac"},
		"cache.remote_lines_per_strip": {remote / n, "lines/strip"},

		"client.issue_us_p50":      {p50(trace.PhaseIssue), "us"},
		"client.irq_us_p50":        {p50(trace.PhaseIRQ), "us"},
		"client.consume_us_p50":    {p50(trace.PhaseConsume), "us"},
		"client.strip_us_p99":      {stripP99 / k, "us"},
		"client.retries_per_strip": {retries / n, "retries/strip"},

		"flowsim.bg_served_frac": {ratio(bgServed, bgOffered), "frac"},

		"shard.rounds":           {float64(probe.rounds), "rounds"},
		"shard.events_per_round": {ratio(float64(probe.fired), float64(probe.rounds)), "events/round"},
		"shard.wall_ratio_2w":    {probe.wallRatio, "x"},

		"gc.cycles_per_run":    {float64(untraced.gcs) / float64(untraced.runs), "gc/run"},
		"trace.overhead_ratio": {tracedPerRun / untracedPerRun, "x"},
	}
	for _, layer := range []string{"sim", "cpu", "apic", "irqsched", "netsim", "pfs", "disk", "cache", "client", "flowsim", "metrics", "gc"} {
		m[layer+".host_share"] = metric{shares[layer], "frac"}
	}
	return m
}

// driverMetrics adds the layer drivers' host costs to m, which must
// already hold the traced pass's hint share.
func driverMetrics(m map[string]metric, rcs []runConfig, peakLive int) error {
	sh := shape{cfg: rcs[0].cfg, peakLive: peakLive, hintedFrac: m["irqsched.hinted_frac"].Value}
	for _, rc := range rcs {
		sh.policies = append(sh.policies, rc.cfg.Policy)
	}
	routeNS, err := driveRoute(sh)
	if err != nil {
		return fmt.Errorf("route driver: %w", err)
	}
	ipv4NS, ipv4Allocs, err := driveIPv4(sh)
	if err != nil {
		return fmt.Errorf("ipv4 driver: %w", err)
	}
	extNS, extAllocs, err := driveExtents(sh)
	if err != nil {
		return fmt.Errorf("extents driver: %w", err)
	}
	submitNS, submitAllocs := driveCPU(sh)
	frameNS, frameAllocs := driveFrame(sh)
	m["sim.schedule_fire_ns"] = metric{driveSim(sh), "ns"}
	m["cpu.submit_ns"] = metric{submitNS, "ns"}
	m["cpu.submit_allocs"] = metric{submitAllocs, "allocs/op"}
	m["irqsched.route_ns"] = metric{routeNS, "ns"}
	m["netsim.ipv4_ns"] = metric{ipv4NS, "ns"}
	m["netsim.ipv4_allocs"] = metric{ipv4Allocs, "allocs/op"}
	m["netsim.frame_ns"] = metric{frameNS, "ns"}
	m["netsim.frame_allocs"] = metric{frameAllocs, "allocs/op"}
	m["pfs.extents_ns"] = metric{extNS, "ns"}
	m["pfs.extents_allocs"] = metric{extAllocs, "allocs/op"}
	m["disk.op_ns"] = metric{driveDisk(sh), "ns"}
	m["cache.fill_consume_ns"] = metric{driveCache(sh), "ns"}
	m["flowsim.advance_ns"] = metric{driveFlowsim(sh), "ns"}
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
