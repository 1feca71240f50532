package obs_test

import (
	"encoding/csv"
	"strconv"
	"strings"
	"testing"

	"vcmt/internal/obs"
	"vcmt/internal/sim"
)

func csvConfig(c *obs.Collector) sim.JobConfig {
	return sim.JobConfig{
		Cluster:   sim.Galaxy8,
		System:    sim.PregelPlus,
		Task:      sim.TaskMemModel{StateBytesPerEntry: 8, ResidualBytesPerEntry: 8},
		StatScale: 1, NodeScale: 1,
		Observer: c,
	}
}

func readCSV(t *testing.T, s string) [][]string {
	t.Helper()
	recs, err := csv.NewReader(strings.NewReader(s)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

func TestRoundCSVRecordsRounds(t *testing.T) {
	c := obs.NewCollector(obs.CollectorOptions{})
	r := sim.NewRun(csvConfig(c))
	r.BeginBatch()
	per := make([]sim.MachineRound, 8)
	for i := range per {
		per[i] = sim.MachineRound{SentLogical: 1000, RecvLogical: 1000, RemoteLogical: 900}
	}
	r.ObserveRound(sim.RoundStats{PerMachine: per})
	r.ObserveRound(sim.RoundStats{PerMachine: per})
	var sb strings.Builder
	n, err := c.WriteRoundCSV(&sb, 3)
	if err != nil {
		t.Fatal(err)
	}
	recs := readCSV(t, sb.String())
	if n != 2 || len(recs) != 3 {
		t.Fatalf("rows=%d, records=%d, want 2 rows after a header", n, len(recs))
	}
	if recs[1][0] != "1" || recs[2][0] != "2" || recs[1][1] != "1" {
		t.Fatalf("round/batch columns wrong: %v %v", recs[1], recs[2])
	}
	// 8 machines x 1000 sends, extrapolated by the stat scale passed in.
	if recs[1][3] != "24000" {
		t.Fatalf("logical msgs %s, want 24000", recs[1][3])
	}
	if recs[1][2] == "0.000000" {
		t.Fatal("trace must record time")
	}
}

func TestWriteRoundCSVFormat(t *testing.T) {
	c := obs.NewCollector(obs.CollectorOptions{})
	c.OnRound(sim.RoundObservation{Round: 1, Batch: 1, Result: sim.RoundResult{Seconds: 0.5}})
	c.OnRound(sim.RoundObservation{Round: 2, Batch: 1, Result: sim.RoundResult{Seconds: 0.25, DiskUtil: 1.5}})
	var sb strings.Builder
	if _, err := c.WriteRoundCSV(&sb, 1); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("want header + 2 rows, got %d lines", len(lines))
	}
	if lines[0] != "round,batch,seconds,logical_msgs,peak_mem_bytes,mem_ratio,thrash_factor,net_seconds,disk_seconds,disk_util,wire_bytes,compute_seconds,barrier_seconds,skew_ratio,ooc_read_bytes,ooc_write_bytes,ooc_window_peak_bytes" {
		t.Fatalf("bad header: %s", lines[0])
	}
	if lines[2] != "2,1,0.250000,0,0,0.0000,0.0000,0.000000,0.000000,1.5000,0,0.000000,0.000000,0.0000,0,0,0" {
		t.Fatalf("bad row: %s", lines[2])
	}
}

func TestWriteMachineCSV(t *testing.T) {
	c := obs.NewCollector(obs.CollectorOptions{})
	r := sim.NewRun(csvConfig(c))
	r.BeginBatch()
	per := make([]sim.MachineRound, 8)
	for i := range per {
		per[i] = sim.MachineRound{
			SentLogical: int64(1000 * (i + 1)), RecvLogical: 500,
			RemoteLogical: 400, ActiveVertices: int64(i), StateEntries: int64(10 * i),
		}
	}
	r.ObserveRound(sim.RoundStats{PerMachine: per})
	var sb strings.Builder
	n, err := c.WriteMachineCSV(&sb)
	if err != nil {
		t.Fatal(err)
	}
	recs := readCSV(t, sb.String())
	if n != 8 || len(recs) != 9 {
		t.Fatalf("rows=%d, records=%d, want header + 8", n, len(recs))
	}
	if strings.Join(recs[0], ",") != "round,batch,machine,sent_logical,recv_logical,remote_logical,active_vertices,state_entries,compute_seconds,net_seconds,disk_seconds,mem_bytes" {
		t.Fatalf("bad machine CSV header: %v", recs[0])
	}
	row := recs[4]
	if row[2] != "3" || row[3] != "4000" || row[7] != "30" {
		t.Fatalf("per-machine counters wrong: %v", row)
	}
	if row[8] == "0.000000" || row[11] == "0" {
		t.Fatalf("per-machine costs missing: %v", row)
	}
	var rounds strings.Builder
	if _, err := c.WriteRoundCSV(&rounds, 1); err != nil {
		t.Fatal(err)
	}
	skew, err := strconv.ParseFloat(readCSV(t, rounds.String())[1][13], 64)
	if err != nil || skew <= 1 {
		t.Fatalf("aggregate row skew=%v (%v) want > 1 for imbalanced sends", skew, err)
	}
}
