package net

import (
	"reflect"
	"testing"
)

// FuzzParse feeds Parse the layer DSL as it arrives from outside the
// process (-spec flags, checkpoints, request bodies). The seeds are the
// spec strings the CI jobs, the benchmark, the README and the examples use.
// Parse must never panic; an accepted spec has every window ≥ 1 and every
// dropout keep in (0, 1]; and rendering an accepted spec and parsing it
// again gives the same spec.
//
//	go test -run '^$' -fuzz '^FuzzParse$' -fuzztime 10s ./internal/net
func FuzzParse(f *testing.F) {
	for _, s := range []string{
		"C3-Trelu-C1",
		"C3-Trelu-C3",
		"C3-Ttanh-C3",
		"C3-Ttanh-C3-Tlogistic",
		"C3-Ttanh-C1-Tlogistic",
		"C3-Trelu-C3-Ttanh",
		"C3-Trelu-D0.7-C3-Ttanh",
		"C3-Trelu-M2-C3-Trelu",
		"C3-Trelu-M2-C3-Trelu-C2",
		"C3-Ttanh-P2-C3-Ttanh-C1-Tlogistic",
		"C3-Trelu-M2-C3-Trelu-M2-C3-Trelu-C3-Trelu",
		"C5-Trelu-C7-Tlogistic",
		"C5-Trelu-C7-Ttanh",
		"C5-Ttanh-C7",
		"C5-Trelu-C3-Ttanh",
		"C5-Trelu-C5-Trelu-C3-Ttanh",
		"C7-Trelu-C7-Trelu-C7-Tlogistic",
		"C7-Trelu-M2-C7-Trelu-M2-C7-Trelu-C7-Trelu",
		"C11-Trelu-M2-C11-Trelu-M2-C11-Trelu-C11-Trelu-C11-Trelu-C11-Trelu",
		"c3 tRelu\tp2\nd1",
		"C3-DNaN",
		"C3-D0.00001", // renders without an exponent, whose '-' would split it
		"D1e-300",
		"",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		spec, err := Parse(s)
		if err != nil {
			return
		}
		for i, l := range spec.Layers {
			switch l.Kind {
			case ConvLayer, PoolLayer, FilterLayer:
				if l.Window < 1 {
					t.Fatalf("Parse(%q) layer %d: window %d < 1", s, i, l.Window)
				}
			case DropoutLayer:
				if !(l.Keep > 0 && l.Keep <= 1) {
					t.Fatalf("Parse(%q) layer %d: keep %v outside (0, 1]", s, i, l.Keep)
				}
			}
		}
		again, err := Parse(spec.String())
		if err != nil {
			t.Fatalf("Parse(%q) renders as %q, which does not parse: %v", s, spec.String(), err)
		}
		if !reflect.DeepEqual(again, spec) {
			t.Fatalf("Parse(%q) = %+v renders as %q, which parses to %+v", s, spec, spec.String(), again)
		}
	})
}
