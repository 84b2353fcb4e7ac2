package core

import (
	"math"
	"testing"
)

func TestCanonArgsRejectsNonFinite(t *testing.T) {
	for _, a := range Algorithms() {
		for _, p := range a.Params {
			if _, err := a.CanonArgs(map[string]float64{p.Name: p.Default}); err != nil {
				t.Errorf("%s %s=%v (the default): %v", a.Name, p.Name, p.Default, err)
			}
			for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
				if _, err := a.CanonArgs(map[string]float64{p.Name: v}); err == nil {
					t.Errorf("%s %s=%v: accepted", a.Name, p.Name, v)
				}
			}
		}
	}
}
