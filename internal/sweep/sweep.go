// Package sweep turns command-line dimension specifications like
//
//	servers=8,16,32 policy=irqbalance,sais transfer=128KiB,1MiB
//
// into the Cartesian product of study points, which experiments.Sweep
// runs as a study with one CSV row per point — the general-purpose
// companion to the fixed figures and studies in the experiments package.
package sweep

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"sais/cluster"
	"sais/experiments"
	"sais/internal/irqsched"
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

// setter parses one string value into the change it makes to a
// configuration.
type setter func(value string) (func(*cluster.Config), error)

func intSetter(apply func(*cluster.Config, int)) setter {
	return func(v string) (func(*cluster.Config), error) {
		n, err := strconv.Atoi(v)
		if err != nil {
			return nil, fmt.Errorf("sweep: %q is not an integer", v)
		}
		return func(c *cluster.Config) { apply(c, n) }, nil
	}
}

func floatSetter(apply func(*cluster.Config, float64)) setter {
	return func(v string) (func(*cluster.Config), error) {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return nil, fmt.Errorf("sweep: %q is not a number", v)
		}
		return func(c *cluster.Config) { apply(c, f) }, nil
	}
}

func bytesSetter(apply func(*cluster.Config, units.Bytes)) setter {
	return func(v string) (func(*cluster.Config), error) {
		b, err := units.ParseBytes(v)
		if err != nil {
			return nil, err
		}
		return func(c *cluster.Config) { apply(c, b) }, nil
	}
}

func boolSetter(apply func(*cluster.Config, bool)) setter {
	return func(v string) (func(*cluster.Config), error) {
		b, err := strconv.ParseBool(v)
		if err != nil {
			return nil, fmt.Errorf("sweep: %q is not a bool", v)
		}
		return func(c *cluster.Config) { apply(c, b) }, nil
	}
}

func timeSetter(apply func(*cluster.Config, units.Time)) setter {
	return func(v string) (func(*cluster.Config), error) {
		d, err := units.ParseTime(v)
		if err != nil {
			return nil, err
		}
		return func(c *cluster.Config) { apply(c, d) }, nil
	}
}

// setters maps dimension names to their value parsers.
var setters = map[string]setter{
	"policy": func(v string) (func(*cluster.Config), error) {
		p, err := irqsched.ParsePolicy(v)
		if err != nil {
			return nil, err
		}
		return func(c *cluster.Config) { c.Policy = p }, nil
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
	"loss":        floatSetter(func(c *cluster.Config, f float64) { experiments.LossPoint(f).Set(c) }),
	"transfer":    bytesSetter(func(c *cluster.Config, b units.Bytes) { c.TransferSize = b }),
	"strip":       bytesSetter(func(c *cluster.Config, b units.Bytes) { c.StripSize = b }),
	"bytes":       bytesSetter(func(c *cluster.Config, b units.Bytes) { c.BytesPerProc = b }),
	"cache":       bytesSetter(func(c *cluster.Config, b units.Bytes) { c.CachePerCore = b }),
	"shared":      boolSetter(func(c *cluster.Config, b bool) { c.SharedFiles = b }),
	"write":       boolSetter(func(c *cluster.Config, b bool) { c.WriteWorkload = b }),
	"random":      boolSetter(func(c *cluster.Config, b bool) { c.RandomAccess = b }),
	"segmented":   boolSetter(func(c *cluster.Config, b bool) { c.Segmented = b }),
	"currentcore": boolSetter(func(c *cluster.Config, b bool) { c.CurrentCoreHint = b }),
	"quantum":     timeSetter(func(c *cluster.Config, d units.Time) { c.TimesliceQuantum = d }),
	"remoteline":  timeSetter(func(c *cluster.Config, d units.Time) { c.Costs.RemoteLine = d }),
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

// Product expands the Cartesian product of dims into study points, the
// first dimension slowest. Each point's values are its dimension values
// in dims order. A dimension named twice is an error, since the later
// one would overwrite the earlier.
func Product(dims []Dim) ([]experiments.Point, error) {
	points := []experiments.Point{{}}
	seen := map[string]bool{}
	for _, d := range dims {
		parse, ok := setters[d.Name]
		if !ok {
			return nil, fmt.Errorf("sweep: unknown dimension %q", d.Name)
		}
		if seen[d.Name] {
			return nil, fmt.Errorf("sweep: dimension %q given twice", d.Name)
		}
		seen[d.Name] = true
		var next []experiments.Point
		for _, p := range points {
			for _, v := range d.Values {
				apply, err := parse(v)
				if err != nil {
					return nil, fmt.Errorf("sweep: %s=%s: %w", d.Name, v, err)
				}
				next = append(next, experiments.Point{
					Values: append(slices.Clip(p.Values), v),
					Set: func(c *cluster.Config) {
						if p.Set != nil {
							p.Set(c)
						}
						apply(c)
					},
				})
			}
		}
		points = next
	}
	return points, nil
}
