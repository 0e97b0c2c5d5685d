package main

import (
	"runtime"
	"time"

	"sais/cluster"
	"sais/internal/apic"
	"sais/internal/cache"
	"sais/internal/client"
	"sais/internal/cpu"
	"sais/internal/disk"
	"sais/internal/flowsim"
	"sais/internal/irqsched"
	"sais/internal/netsim"
	"sais/internal/pfs"
	"sais/internal/rng"
	"sais/internal/sim"
	"sais/internal/units"
)

// The layer drivers time calls into one layer's public functions with
// inputs shaped like a workload: its strip and transfer sizes, cores,
// servers, policies, tenant mix, and the queue depth and hint share
// measured in its traced pass. A regression in one layer moves its
// driver's number even when the end-to-end metrics hide it.

const (
	driverRounds = 5
	driverRound  = 20 * time.Millisecond
)

// measure calls op, which performs batch operations, in rounds sized to
// last about driverRound each. It returns the median host nanoseconds
// per operation over driverRounds rounds and the heap allocations per
// operation over all of them.
func measure(batch int, op func()) (nsPerOp, allocsPerOp float64) {
	calls := 1
	for {
		start := time.Now()
		for i := 0; i < calls; i++ {
			op()
		}
		if d := time.Since(start); d >= driverRound/4 {
			calls = int(float64(calls)*float64(driverRound)/float64(d)) + 1
			break
		}
		calls *= 4
	}
	ns := make([]float64, driverRounds)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for r := range ns {
		start := time.Now()
		for i := 0; i < calls; i++ {
			op()
		}
		ns[r] = float64(time.Since(start).Nanoseconds()) / float64(calls*batch)
	}
	runtime.ReadMemStats(&m1)
	return median(ns), float64(m1.Mallocs-m0.Mallocs) / float64(driverRounds*calls*batch)
}

// shape is what the drivers take from a workload.
type shape struct {
	cfg        cluster.Config
	policies   []irqsched.PolicyKind
	peakLive   int
	hintedFrac float64
}

// driveSim times one engine schedule plus fire with peakLive
// self-rearming events pending, the queue depth the traced run peaked
// at.
func driveSim(sh shape) float64 {
	e := sim.NewEngine()
	var step units.Time
	var tick sim.Event
	tick = func(now units.Time) {
		step++
		e.At(now+step%97+1, tick)
	}
	for i := 0; i < max(sh.peakLive, 1); i++ {
		e.At(units.Time(i), tick)
	}
	const batch = 256
	ns, _ := measure(batch, func() {
		for i := 0; i < batch; i++ {
			e.Step()
		}
	})
	return ns
}

// driveCPU submits a softirq/process mix to one core and drains it.
func driveCPU(sh shape) (ns, allocs float64) {
	eng := sim.NewEngine()
	core := cpu.NewCore(eng, 0, sh.cfg.ClientFreq)
	done := func(units.Time) {}
	const batch = 64
	return measure(batch, func() {
		for i := 0; i < batch; i++ {
			if i%4 == 3 {
				core.Submit(cpu.PrioProcess, cpu.CatCompute, 20*units.Microsecond, done)
			} else {
				core.Submit(cpu.PrioSoftirq, cpu.CatSoftirq, 3*units.Microsecond, done)
			}
		}
		eng.RunUntilIdle()
	})
}

// driveRoute calls each of the workload's policies' Route with the
// hinted share the traced pass measured, and returns the mean over
// policies.
func driveRoute(sh shape) (float64, error) {
	cores := sh.cfg.CoresPerClient
	allowed := make([]int, cores)
	for i := range allowed {
		allowed[i] = i
	}
	var sum float64
	for _, pol := range sh.policies {
		r, err := irqsched.New(pol, irqsched.Options{Cores: cores})
		if err != nil {
			return 0, err
		}
		var now units.Time
		var flow uint64
		var credit float64
		const batch = 256
		ns, _ := measure(batch, func() {
			for i := 0; i < batch; i++ {
				hint := apic.NoHint
				if credit += sh.hintedFrac; credit >= 1 {
					credit--
					hint = int(flow) % cores
				}
				now += 10 * units.Microsecond
				flow++
				r.Route(client.DataVector, hint, flow, allowed, now)
			}
		})
		sum += ns
	}
	return sum / float64(len(sh.policies)), nil
}

// driveIPv4 marshals and validates a header carrying the SAIs
// aff_core_id option.
func driveIPv4(sh shape) (ns, allocs float64, err error) {
	opts, err := netsim.Hint(sh.cfg.CoresPerClient - 1).OptionsBytes()
	if err != nil {
		return 0, 0, err
	}
	h := netsim.IPv4Header{TotalLen: 1500, TTL: 64, Protocol: 6, Options: opts}
	buf := make([]byte, 0, 64)
	var derr error
	ns, allocs = measure(1, func() {
		buf, derr = h.MarshalAppend(buf[:0])
		if derr == nil {
			_, _, derr = netsim.UnmarshalIPv4(buf)
		}
	})
	return ns, allocs, derr
}

// driveFrame sends strip-sized frames NIC → fabric → NIC and drains and
// frees them at the receiver.
func driveFrame(sh shape) (ns, allocs float64) {
	eng := sim.NewEngine()
	fab := netsim.NewFabric(eng, sh.cfg.FabricLatency)
	tx := netsim.NewNIC(eng, 1, netsim.DefaultNICConfig(sh.cfg.ServerNICRate))
	rx := netsim.NewNIC(eng, 2, netsim.DefaultNICConfig(sh.cfg.ClientNICRate))
	fab.Attach(tx)
	fab.Attach(rx)
	rx.SetInterruptHandler(func(units.Time) {
		for _, f := range rx.Drain() {
			rx.Free(f)
		}
	})
	hint := netsim.Hint(sh.cfg.CoresPerClient - 1)
	const batch = 64
	return measure(batch, func() {
		for i := 0; i < batch; i++ {
			tx.Send(2, sh.cfg.StripSize, hint, nil)
		}
		eng.RunUntilIdle()
	})
}

// driveExtents maps consecutive transfers of the workload's file shape.
func driveExtents(sh shape) (ns, allocs float64, err error) {
	servers := make([]netsim.NodeID, sh.cfg.Servers)
	for i := range servers {
		servers[i] = netsim.NodeID(100 + i)
	}
	size := sh.cfg.BytesPerProc
	l := pfs.Layout{StripSize: sh.cfg.StripSize, Servers: servers, Size: size}
	var off units.Bytes
	var xerr error
	ns, allocs = measure(1, func() {
		_, xerr = l.Extents(off, sh.cfg.TransferSize)
		if off += sh.cfg.TransferSize; off+sh.cfg.TransferSize > size {
			off = 0
		}
	})
	return ns, allocs, xerr
}

// driveDisk issues sequential strip-sized requests, writes on a write
// workload and reads otherwise.
func driveDisk(sh shape) float64 {
	eng := sim.NewEngine()
	d := disk.New(eng, sh.cfg.Disk, rng.New(sh.cfg.Seed))
	op := d.Read
	if sh.cfg.WriteWorkload {
		op = d.Write
	}
	var lba units.Bytes
	const batch = 64
	ns, _ := measure(batch, func() {
		for i := 0; i < batch; i++ {
			op(lba, sh.cfg.StripSize, nil)
			if lba += sh.cfg.StripSize; lba >= sh.cfg.Disk.Span/2 {
				lba = 0
			}
		}
		eng.RunUntilIdle()
	})
	return ns
}

// driveCache fills a strip into one core's cache and consumes it on the
// next core, the softirq-to-consumer handoff.
func driveCache(sh shape) float64 {
	cores := sh.cfg.CoresPerClient
	s := cache.NewSystem(cores, sh.cfg.CachePerCore, sh.cfg.LineSize)
	var id cache.BlockID
	ns, _ := measure(1, func() {
		id++
		c := int(id) % cores
		s.Fill(c, id, sh.cfg.StripSize)
		s.Consume((c+1)%cores, id)
		s.Release(id)
	})
	return ns
}

// driveFlowsim advances one server station one rate-update step under
// the workload's tenant mix. It returns 0 for a workload without
// background users: flowsim does no work there.
func driveFlowsim(sh shape) float64 {
	if sh.cfg.BackgroundUsers == 0 {
		return 0
	}
	step := sh.cfg.RateUpdate
	if step <= 0 {
		step = units.Millisecond
	}
	flows := flowsim.ServerFlows(sh.cfg.TenantMix, sh.cfg.BackgroundUsers, 0, sh.cfg.Servers)
	st := flowsim.NewStation(sh.cfg.ServerNICRate, step, flows)
	var now units.Time
	ns, _ := measure(1, func() {
		now += step
		st.AdvanceTo(now)
	})
	return ns
}
