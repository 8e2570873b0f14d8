// Command experiments regenerates every figure and table of the tutorial
// (see DESIGN.md for the per-experiment index). With no arguments it runs
// everything; pass experiment ids (e.g. E01 T2) to run a subset.
//
//	go run ./cmd/experiments [-metrics] [-serve addr] [ids...]
//
// Every id is validated against the registry before anything runs: one or
// more unknown ids abort the whole invocation with exit status 1 and a
// line per bad id naming the valid range, instead of failing halfway
// through a partial run. With -metrics each experiment is followed by a
// dump of the instrumentation counters it produced (Prometheus text
// format, deterministic for a fixed seed). With -serve the live ops
// endpoints (/metrics, /spans, /healthz, /debug/pprof/) are served on the
// given host:port for the duration of the sweep, so a long regeneration
// can be watched and profiled while it runs.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"multiclust/internal/experiments"
	"multiclust/internal/obs"
	"multiclust/internal/ops"
)

func main() {
	metrics := flag.Bool("metrics", false, "after each experiment, dump its recorded obs counters (Prometheus text format)")
	serveAddr := flag.String("serve", "", "serve live ops endpoints (/metrics, /spans, /healthz, /debug/pprof/) on this host:port during the sweep")
	flag.Parse()
	if err := run(flag.Args(), *metrics, *serveAddr, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
}

// run validates ids up front, then executes each experiment in order.
// Unknown ids are all reported before anything runs, so a typo never
// costs a partial sweep.
func run(ids []string, metrics bool, serveAddr string, stdout, stderr io.Writer) error {
	if len(ids) == 0 {
		ids = experiments.IDs()
	}
	if unknown := unknownIDs(ids); len(unknown) > 0 {
		for _, id := range unknown {
			fmt.Fprintf(stderr, "experiments: unknown experiment id %q\n", id)
		}
		return fmt.Errorf("%d unknown experiment id(s); valid ids: %s",
			len(unknown), strings.Join(experiments.IDs(), " "))
	}

	var collector *obs.Collector
	if metrics || serveAddr != "" {
		collector = obs.NewCollector()
		prev := obs.Default()
		obs.SetDefault(collector)
		defer obs.SetDefault(prev)
	}
	if serveAddr != "" {
		h, err := ops.ServeOpts(serveAddr, collector, ops.MuxOptions{})
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "experiments: ops endpoints at %s\n", h.URL)
		defer func() {
			if err := h.Shutdown(context.Background()); err != nil {
				fmt.Fprintf(stderr, "experiments: %v\n", err)
			}
		}()
	}
	for _, id := range ids {
		// Per-experiment dumps reset between runs so each block is
		// deterministic; a serve-only collector instead accumulates
		// across the sweep for the live endpoint.
		if metrics {
			collector.Reset()
		}
		t, err := experiments.Run(id)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		if err := t.Render(stdout); err != nil {
			return fmt.Errorf("writing %s: %w", id, err)
		}
		if metrics {
			fmt.Fprintf(stdout, "--- %s metrics ---\n", id)
			if err := collector.WriteProm(stdout); err != nil {
				return fmt.Errorf("writing %s metrics: %w", id, err)
			}
			fmt.Fprintln(stdout)
		}
	}
	return nil
}

// unknownIDs returns the sorted distinct ids that are not in the registry.
func unknownIDs(ids []string) []string {
	valid := map[string]bool{}
	for _, id := range experiments.IDs() {
		valid[id] = true
	}
	seen := map[string]bool{}
	var out []string
	for _, id := range ids {
		if !valid[id] && !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}
