// Package experiments implements the evaluation suite of DESIGN.md
// Section 5. The paper is a theory paper with no empirical tables, so each
// experiment operationalizes one of its quantitative claims; the tables
// here are what EXPERIMENTS.md records and what cmd/mpcbench and the
// root-level benchmarks regenerate.
package experiments

import (
	"fmt"
	"sort"

	"parcolor/internal/stats"
)

// Config scales the suite.
type Config struct {
	// Quick shrinks sweeps for unit tests and -short benchmarks.
	Quick bool
	// Seed drives every randomized workload generator.
	Seed uint64
	// SeedBits bounds derandomization seed spaces (0 = 6, keeping full
	// sweeps tractable on a laptop; the certificate guarantees hold for
	// any value).
	SeedBits int
}

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.SeedBits == 0 {
		c.SeedBits = 6
	}
	return c
}

// sizes returns the n sweep for an experiment.
func (c Config) sizes() []int {
	if c.Quick {
		return []int{80, 160}
	}
	return []int{200, 400, 800, 1600}
}

// Runner produces one experiment table.
type Runner func(Config) *stats.Table

var registry = map[string]Runner{}

func register(id string, r Runner) { registry[id] = r }

// IDs lists registered experiments in order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Run executes one experiment by id.
func Run(id string, cfg Config) (*stats.Table, error) {
	r, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown id %q (have %v)", id, IDs())
	}
	return r(cfg.withDefaults()), nil
}

// RunAll executes the whole suite in id order.
func RunAll(cfg Config) []*stats.Table {
	var out []*stats.Table
	for _, id := range IDs() {
		t, _ := Run(id, cfg)
		out = append(out, t)
	}
	return out
}
