package main

// Reproducers for the faults README.md lists as F1 and F2. Each passes on
// the behaviour the benchmark's checks accept and logs the fault itself.

import (
	"context"
	"reflect"
	"testing"

	"edbp/internal/energy"
	"edbp/internal/sim"
)

// F1: the batched loop and sim.RunReference differ by a few ulps in
// accumulated energies, though the code documents them as bit-identical.
func TestF1ReferenceUlps(t *testing.T) {
	cfg := sim.Default("cjpeg", sim.Baseline)
	cfg.TraceKind = energy.Solar
	cfg.SourceSeed = 2
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := sim.RunReference(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := compareResults(res, ref); err != nil {
		t.Fatalf("beyond the %g tolerance: %v", refRelTol, err)
	}
	t.Logf("bit-identical: %v; Cap.Wasted %v vs %v; Energy.DCacheLeak %v vs %v",
		reflect.DeepEqual(res.Cap, ref.Cap) && reflect.DeepEqual(res.Energy, ref.Energy),
		res.Cap.Wasted, ref.Cap.Wasted, res.Energy.DCacheLeak, ref.Energy.DCacheLeak)
}

// F2: edbpd builds the capacitance as cap_uf*1e-6, a different float from
// sim.Default's, so a default request is stored under another config hash
// than the library config, while the results agree.
func TestF2CapacitanceHash(t *testing.T) {
	lib := sim.Default("crc32", sim.EDBP)
	lib.Scale = 0.05
	svc := lib
	capUF := 0.47 // a float64 variable, as edbpd's request field is
	svc.Capacitor.Capacitance = capUF * 1e-6
	t.Logf("capacitance %v vs %v; config hash %.8s vs %.8s",
		lib.Capacitor.Capacitance, svc.Capacitor.Capacitance, sim.ConfigHash(lib), sim.ConfigHash(svc))
	a, err := sim.Run(lib)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sim.Run(svc)
	if err != nil {
		t.Fatal(err)
	}
	if err := compareResults(a, b); err != nil {
		t.Fatal(err)
	}
}
