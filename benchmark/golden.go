package main

import (
	_ "embed"
	"encoding/json"
	"os"

	"repro/internal/core"
)

// pin is what expect_seed1.json records of one job: enough to tell that the
// benchmark still measures the same work.
type pin struct {
	Size       int     `json:"size"`
	Weight     float64 `json:"weight"`
	Iterations int     `json:"iterations"`
	Rounds     int     `json:"rounds"`
	Words      int64   `json:"words"`
}

func pinOf(res *core.RunResult) pin {
	return pin{Size: res.Size, Weight: res.Weight, Iterations: res.Iterations,
		Rounds: res.Metrics.Rounds, Words: res.Metrics.WordsSent}
}

//go:embed expect_seed1.json
var goldenJSON []byte

// golden maps workload → job name → pin, for seed 1 at full scale.
var golden = func() map[string]map[string]pin {
	var g map[string]map[string]pin
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		panic("expect_seed1.json: " + err.Error()) // the embedded file is part of the program
	}
	return g
}()

// checkPin compares a job's first result with the golden file. Only seed 1
// at full scale is pinned; any other run passes the gate on the remaining
// checks alone.
func checkPin(out *outcome, o options, name string, got pin) bool {
	want, pinned := golden[o.workload][name]
	if o.tiny || o.seed != 1 || o.pins != "" || !pinned {
		return true
	}
	return out.check(got == want, "%s %s: got %+v, expect_seed1.json has %+v", o.workload, name, got, want)
}

// writePins writes the run's pins in expect_seed1.json's form: how that file
// is regenerated after a deliberate change of the workloads, one workload at
// a time.
func writePins(o options, pins map[string]pin) error {
	if o.pins == "" {
		return nil
	}
	data, err := json.MarshalIndent(map[string]map[string]pin{o.workload: pins}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(o.pins, append(data, '\n'), 0o644)
}
