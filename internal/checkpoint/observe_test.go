package checkpoint

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// A checkpointed run with an observer attached must account for every
// durable write: one SpanCheckpoint span per operation, with the
// bytes/writes counters matching the emitted spans exactly.
func TestCheckpointObservation(t *testing.T) {
	cfg, doc := corpusConfig(t), corpusDoc(t)
	cfgFP, docFP := fingerprints(t, cfg, doc)

	ring := obs.NewRing(1 << 12)
	col := obs.NewCollector()
	ob := obs.New(ring, col)

	d, err := Create(OSFS(), t.TempDir(), cfgFP, docFP)
	if err != nil {
		t.Fatal(err)
	}
	d.SetObserver(ob)
	if _, err := core.RunContext(context.Background(), doc, cfg,
		core.Options{Checkpointer: d, Observer: ob}); err != nil {
		t.Fatal(err)
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}

	kinds := map[string]int{}
	var spanBytes, spans int64
	for _, r := range ring.Records() {
		if r.Name != obs.SpanCheckpoint {
			continue
		}
		spans++
		spanBytes += r.AttrInt(obs.AttrBytes)
		kinds[r.AttrString(obs.AttrKind)]++
	}
	// No GK section: pass progress, cluster sets and the finish mark
	// are the only writes.
	if kinds["finish"] != 1 || kinds["pairs"] == 0 || len(kinds) != 3 {
		t.Errorf("operation kinds = %v", kinds)
	}
	if kinds["clusters"] != len(cfg.Candidates) {
		t.Errorf("cluster writes = %d, want %d", kinds["clusters"], len(cfg.Candidates))
	}
	if spanBytes <= 0 {
		t.Fatal("no bytes attributed to checkpoint writes")
	}

	m := ob.Metrics()
	if m.CheckpointWrites.Load() != spans {
		t.Errorf("CheckpointWrites = %d, spans = %d", m.CheckpointWrites.Load(), spans)
	}
	if m.CheckpointBytes.Load() != spanBytes {
		t.Errorf("CheckpointBytes = %d, span sum = %d", m.CheckpointBytes.Load(), spanBytes)
	}

	rep := col.Report(m)
	if rep.Checkpoint == nil || rep.Checkpoint.Writes != spans || rep.Checkpoint.Bytes != spanBytes {
		t.Errorf("report checkpoint = %+v, want %d writes / %d bytes", rep.Checkpoint, spans, spanBytes)
	}
}

// SetObserver with a disabled observer must turn accounting off.
func TestCheckpointObserverDisabled(t *testing.T) {
	cfg, doc := corpusConfig(t), corpusDoc(t)
	cfgFP, docFP := fingerprints(t, cfg, doc)
	ring := obs.NewRing(16)
	ob := obs.New(ring)
	ob.SetEnabled(false)

	d, err := Create(OSFS(), t.TempDir(), cfgFP, docFP)
	if err != nil {
		t.Fatal(err)
	}
	d.SetObserver(ob)
	if _, err := core.RunContext(context.Background(), doc, cfg,
		core.Options{Checkpointer: d}); err != nil {
		t.Fatal(err)
	}
	if got := len(ring.Records()); got != 0 {
		t.Errorf("disabled observer saw %d records", got)
	}
	if ob.Metrics().CheckpointWrites.Load() != 0 {
		t.Error("disabled observer counted writes")
	}
}
