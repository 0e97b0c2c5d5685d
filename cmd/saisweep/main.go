// Command saisweep runs the Cartesian product of user-specified
// dimensions over the default cluster configuration as an
// experiments.Sweep study and emits one CSV row per point — the
// free-form companion to cmd/experiments' fixed figures.
//
// Examples:
//
//	saisweep servers=8,16,32,48 policy=irqbalance,sais
//	saisweep -parallel 8 transfer=128KiB,1MiB nic=1,3 policy=sais
//	saisweep -timeout 90s servers=8,16,32 policy=sais
//	saisweep -list
//
// Points run on the shared run-orchestration engine: -parallel bounds
// concurrency, -timeout bounds the whole sweep, and Ctrl-C (SIGINT)
// stops in-flight simulations promptly while still printing every row
// completed so far (rows stay in point order regardless of worker
// count).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"sais/cluster"
	"sais/experiments"
	"sais/internal/sweep"
	"sais/internal/units"
)

func main() {
	var (
		list    = flag.Bool("list", false, "list sweepable dimensions and exit")
		bytes   = flag.String("bytes", "16MiB", "per-process byte budget for every point")
		par     = flag.Int("parallel", 1, "run up to N sweep points concurrently")
		timeout = flag.Duration("timeout", 0, "abort the sweep after this long (0 = no limit)")
		outPath = flag.String("out", "", "write the CSV to this file instead of stdout")
	)
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(sweep.Names(), "\n"))
		return
	}
	if flag.NArg() == 0 {
		fatal(errors.New("no dimensions given (try 'saisweep servers=8,16 policy=irqbalance,sais')"))
	}
	if *par < 1 {
		fatal(fmt.Errorf("-parallel %d: want at least 1", *par))
	}

	var dims []sweep.Dim
	var names []string
	for _, spec := range flag.Args() {
		d, err := sweep.ParseDim(spec)
		if err != nil {
			fatal(err)
		}
		dims = append(dims, d)
		names = append(names, d.Name)
	}
	base := cluster.DefaultConfig()
	b, err := units.ParseBytes(*bytes)
	if err != nil {
		fatal(err)
	}
	base.BytesPerProc = b
	points, err := sweep.Product(dims)
	if err != nil {
		fatal(err)
	}
	study := experiments.Sweep(base, names, points)
	study.Parallel = *par

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	if *timeout > 0 {
		var cancelTimeout context.CancelFunc
		ctx, cancelTimeout = context.WithTimeout(ctx, *timeout)
		defer cancelTimeout()
	}

	rep, err := study.RunContext(ctx)
	if rep == nil {
		fatal(err)
	}
	// An interrupted or failed sweep still writes the rows it completed.
	if werr := writeFile(*outPath, rep.CSV()); werr != nil {
		fatal(werr)
	}
	if err != nil {
		fatal(fmt.Errorf("sweep stopped after %d/%d points: %w", len(rep.Rows), len(points), err))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "saisweep:", err)
	os.Exit(1)
}

// writeFile writes text to path, or to stdout when path is empty. The
// file's close error is checked: that is where a short write to a full
// disk surfaces.
func writeFile(path, text string) error {
	if path == "" {
		_, err := os.Stdout.WriteString(text)
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	_, err = f.WriteString(text)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
