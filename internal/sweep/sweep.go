// Package sweep turns command-line dimension specifications like
//
//	servers=8,16,32 policy=irqbalance,sais transfer=128KiB,1MiB
//
// into the Cartesian product of cluster configurations and runs them,
// producing one CSV row per point — the general-purpose companion to
// the fixed per-figure sweeps in the experiments package.
package sweep

import (
	"context"
	"fmt"
	"maps"
	"sort"
	"strconv"
	"strings"

	"sais/cluster"
	"sais/internal/faults"
	"sais/internal/irqsched"
	"sais/internal/runner"
	"sais/internal/units"
)

// Dim is one swept dimension: a settable field name and its values.
type Dim struct {
	Name   string
	Values []string
}

// ParseDim parses "name=v1,v2,v3".
func ParseDim(spec string) (Dim, error) {
	name, rest, ok := strings.Cut(spec, "=")
	if !ok || name == "" || rest == "" {
		return Dim{}, fmt.Errorf("sweep: bad dimension %q (want name=v1,v2,...)", spec)
	}
	if _, known := setters[name]; !known {
		return Dim{}, fmt.Errorf("sweep: unknown dimension %q (have %s)", name, strings.Join(Names(), ", "))
	}
	var values []string
	for _, v := range strings.Split(rest, ",") {
		v = strings.TrimSpace(v)
		if v == "" {
			return Dim{}, fmt.Errorf("sweep: empty value in %q", spec)
		}
		values = append(values, v)
	}
	return Dim{Name: name, Values: values}, nil
}

// setter applies one string value to a configuration.
type setter func(cfg *cluster.Config, value string) error

func intSetter(apply func(*cluster.Config, int)) setter {
	return func(cfg *cluster.Config, v string) error {
		n, err := strconv.Atoi(v)
		if err != nil {
			return fmt.Errorf("sweep: %q is not an integer", v)
		}
		apply(cfg, n)
		return nil
	}
}

func floatSetter(apply func(*cluster.Config, float64)) setter {
	return func(cfg *cluster.Config, v string) error {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return fmt.Errorf("sweep: %q is not a number", v)
		}
		apply(cfg, f)
		return nil
	}
}

func bytesSetter(apply func(*cluster.Config, units.Bytes)) setter {
	return func(cfg *cluster.Config, v string) error {
		b, err := units.ParseBytes(v)
		if err != nil {
			return err
		}
		apply(cfg, b)
		return nil
	}
}

func boolSetter(apply func(*cluster.Config, bool)) setter {
	return func(cfg *cluster.Config, v string) error {
		b, err := strconv.ParseBool(v)
		if err != nil {
			return fmt.Errorf("sweep: %q is not a bool", v)
		}
		apply(cfg, b)
		return nil
	}
}

// setters maps dimension names to field mutators.
var setters = map[string]setter{
	"policy": func(cfg *cluster.Config, v string) error {
		p, err := irqsched.ParsePolicy(v)
		if err != nil {
			return err
		}
		cfg.Policy = p
		return nil
	},
	"servers":  intSetter(func(c *cluster.Config, n int) { c.Servers = n }),
	"clients":  intSetter(func(c *cluster.Config, n int) { c.Clients = n }),
	"procs":    intSetter(func(c *cluster.Config, n int) { c.ProcsPerClient = n }),
	"cores":    intSetter(func(c *cluster.Config, n int) { c.CoresPerClient = n }),
	"nicports": intSetter(func(c *cluster.Config, n int) { c.ClientNICPorts = n }),
	"rss":      intSetter(func(c *cluster.Config, n int) { c.RSSQueues = n }),
	"coalesce": intSetter(func(c *cluster.Config, n int) { c.CoalesceFrames = n }),
	"aggs":     intSetter(func(c *cluster.Config, n int) { c.Aggregators = n }),
	"seed":     intSetter(func(c *cluster.Config, n int) { c.Seed = uint64(n) }),
	"nic": floatSetter(func(c *cluster.Config, f float64) {
		c.ClientNICRate = units.Rate(f) * units.Gigabit
	}),
	"servernic": floatSetter(func(c *cluster.Config, f float64) {
		c.ServerNICRate = units.Rate(f) * units.Gigabit
	}),
	"migrate":     floatSetter(func(c *cluster.Config, f float64) { c.MigrateDuringBlock = f }),
	"loss":        floatSetter(SetLoss),
	"transfer":    bytesSetter(func(c *cluster.Config, b units.Bytes) { c.TransferSize = b }),
	"strip":       bytesSetter(func(c *cluster.Config, b units.Bytes) { c.StripSize = b }),
	"bytes":       bytesSetter(func(c *cluster.Config, b units.Bytes) { c.BytesPerProc = b }),
	"cache":       bytesSetter(func(c *cluster.Config, b units.Bytes) { c.CachePerCore = b }),
	"shared":      boolSetter(func(c *cluster.Config, b bool) { c.SharedFiles = b }),
	"write":       boolSetter(func(c *cluster.Config, b bool) { c.WriteWorkload = b }),
	"random":      boolSetter(func(c *cluster.Config, b bool) { c.RandomAccess = b }),
	"segmented":   boolSetter(func(c *cluster.Config, b bool) { c.Segmented = b }),
	"currentcore": boolSetter(func(c *cluster.Config, b bool) { c.CurrentCoreHint = b }),
	"quantum": func(cfg *cluster.Config, v string) error {
		d, err := units.ParseTime(v)
		if err != nil {
			return err
		}
		cfg.TimesliceQuantum = d
		return nil
	},
	"remoteline": func(cfg *cluster.Config, v string) error {
		d, err := units.ParseTime(v)
		if err != nil {
			return err
		}
		cfg.Costs.RemoteLine = d
		return nil
	},
}

// SetLoss writes the loss rate into a plan of the config's own: points
// run concurrently, so none may write to a plan another point holds.
func SetLoss(c *cluster.Config, f float64) {
	p := c.Faults.Clone()
	if p == nil {
		p = &faults.Plan{}
	}
	p.Loss = f
	c.Faults = p
}

// Names lists the settable dimension names, sorted.
func Names() []string {
	out := make([]string, 0, len(setters))
	//lint:maporder key collection only; sorted on the next line
	for n := range setters {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Point is one configuration in the product, with its dimension values.
type Point struct {
	Values map[string]string
	Config cluster.Config
}

// Product expands the Cartesian product of dims over base.
func Product(base cluster.Config, dims []Dim) ([]Point, error) {
	points := []Point{{Values: map[string]string{}, Config: base}}
	for _, d := range dims {
		set, ok := setters[d.Name]
		if !ok {
			return nil, fmt.Errorf("sweep: unknown dimension %q", d.Name)
		}
		var next []Point
		for _, p := range points {
			for _, v := range d.Values {
				cfg := p.Config
				if err := set(&cfg, v); err != nil {
					return nil, fmt.Errorf("sweep: %s=%s: %w", d.Name, v, err)
				}
				vals := make(map[string]string, len(p.Values)+1)
				maps.Copy(vals, p.Values)
				vals[d.Name] = v
				next = append(next, Point{Values: vals, Config: cfg})
			}
		}
		points = next
	}
	return points, nil
}

// CSVHeader returns the header row for the given dimensions.
func CSVHeader(dims []Dim) string {
	names := make([]string, len(dims))
	for i, d := range dims {
		names[i] = d.Name
	}
	return strings.Join(append(names,
		"bandwidth_MBps", "miss_rate", "cpu_util", "unhalted_cycles",
		"migrated_lines", "nic_busy", "disk_busy"), ",")
}

// Rows runs every point — up to parallel at once on the shared
// internal/runner engine — and returns one CSV row per point, in point
// order regardless of completion order. The first point error or a
// cancelled ctx stops in-flight runs promptly and skips queued points;
// the returned slice then still holds every row completed so far
// (unfinished slots are empty strings), so interrupted sweeps can
// print partial results.
func Rows(ctx context.Context, dims []Dim, points []Point, parallel int) ([]string, error) {
	//lint:goroutine runner.Map joins all workers and returns rows in point order; per-cell output is seed-deterministic
	return runner.Map(ctx, len(points), runner.Options{Workers: parallel},
		func(ctx context.Context, i int) (string, error) {
			return csvRow(ctx, dims, points[i])
		})
}

// CSVRow runs one point and formats its result row.
func CSVRow(dims []Dim, p Point) (string, error) {
	return csvRow(context.Background(), dims, p)
}

func csvRow(ctx context.Context, dims []Dim, p Point) (string, error) {
	res, err := cluster.RunContext(ctx, p.Config)
	if err != nil {
		return "", err
	}
	fields := make([]string, 0, len(dims)+7)
	for _, d := range dims {
		fields = append(fields, p.Values[d.Name])
	}
	fields = append(fields,
		fmt.Sprintf("%.2f", float64(res.Bandwidth)/1e6),
		fmt.Sprintf("%.5f", res.CacheMissRate),
		fmt.Sprintf("%.5f", res.CPUUtilization),
		strconv.FormatInt(int64(res.UnhaltedCycles), 10),
		strconv.FormatUint(res.RemoteLines, 10),
		fmt.Sprintf("%.4f", res.ClientNICBusy),
		fmt.Sprintf("%.4f", res.DiskBusy),
	)
	return strings.Join(fields, ","), nil
}
