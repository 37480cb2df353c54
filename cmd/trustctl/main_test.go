package main

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"weboftrust"
	"weboftrust/internal/checkpoint"
	"weboftrust/internal/ratings"
	"weboftrust/internal/store"
	"weboftrust/internal/synth"
)

// generateLog writes the Small seed-3 community as an event log through
// trustctl generate and returns its path.
func generateLog(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "events.log")
	if err := run([]string{"generate", "-preset", "small", "-seed", "3", "-out", path}); err != nil {
		t.Fatal(err)
	}
	return path
}

// datasetRecords lists every record of d, in id order, for comparison.
type datasetRecords struct {
	Categories, Users []string
	Objects           []ratings.Object
	Reviews           []ratings.Review
	Ratings           []ratings.Rating
	Trust             []ratings.TrustEdge
}

func recordsOf(d *ratings.Dataset) datasetRecords {
	r := datasetRecords{Ratings: d.Ratings(), Trust: d.TrustEdges()}
	for c := 0; c < d.NumCategories(); c++ {
		r.Categories = append(r.Categories, d.CategoryName(ratings.CategoryID(c)))
	}
	for u := 0; u < d.NumUsers(); u++ {
		r.Users = append(r.Users, d.UserName(ratings.UserID(u)))
	}
	for o := 0; o < d.NumObjects(); o++ {
		r.Objects = append(r.Objects, d.Object(ratings.ObjectID(o)))
	}
	for v := 0; v < d.NumReviews(); v++ {
		r.Reviews = append(r.Reviews, d.Review(ratings.ReviewID(v)))
	}
	return r
}

func TestGenerateAndStats(t *testing.T) {
	path := generateLog(t)
	if err := run([]string{"stats", "-log", path}); err != nil {
		t.Fatal(err)
	}
	// The log must replay to the community synth generates for the same
	// preset and seed, record for record.
	got, err := loadLogDataset(path, false)
	if err != nil {
		t.Fatal(err)
	}
	cfg := synth.Small()
	cfg.Seed = 3
	want, _, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(recordsOf(got), recordsOf(want)) {
		t.Errorf("generated log replays to %v, synth generates %v, or their records differ", got, want)
	}
}

func TestExportLogRoundTrip(t *testing.T) {
	path := generateLog(t)
	// Log → dataset → log must give back the same bytes and records.
	first, err := loadLogDataset(path, false)
	if err != nil {
		t.Fatal(err)
	}
	again := filepath.Join(t.TempDir(), "again.log")
	if err := writeLog(again, first); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(again)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("rewritten log has %d bytes, generated log %d, or their bytes differ", len(got), len(want))
	}
	second, err := loadLogDataset(again, false)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(recordsOf(second), recordsOf(first)) {
		t.Errorf("round trip differs: %v vs %v", second, first)
	}
}

func TestTopKAndExpertise(t *testing.T) {
	path := generateLog(t)
	if err := run([]string{"topk", "-log", path, "-user", "5", "-k", "3"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"expertise", "-log", path, "-user", "5"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"topk", "-log", path, "-user", "999999"}); err == nil {
		t.Error("out-of-range user accepted")
	}
	if err := run([]string{"expertise", "-log", path, "-user", "999999"}); err == nil {
		t.Error("out-of-range user accepted")
	}
}

func TestExportCSV(t *testing.T) {
	path := generateLog(t)
	dir := filepath.Join(t.TempDir(), "csv")
	if err := run([]string{"export", "-log", path, "-dir", dir}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"users", "objects", "reviews", "ratings", "trust"} {
		p := filepath.Join(dir, name+".csv")
		info, err := os.Stat(p)
		if err != nil {
			t.Fatalf("%s missing: %v", p, err)
		}
		if info.Size() == 0 {
			t.Errorf("%s is empty", p)
		}
	}
}

// readingCommands runs each subcommand that reads a whole log and refuses
// a torn one, against the log at path.
func readingCommands(path string) map[string][]string {
	return map[string][]string{
		"stats":     {"stats", "-log", path},
		"topk":      {"topk", "-log", path, "-user", "5"},
		"expertise": {"expertise", "-log", path, "-user", "5"},
		"export":    {"export", "-log", path, "-dir", filepath.Join(filepath.Dir(path), "csv")},
	}
}

func TestTornLogRefused(t *testing.T) {
	path := generateLog(t)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the final record.
	if err := os.WriteFile(path, raw[:len(raw)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	for name, args := range readingCommands(path) {
		err := run(args)
		var trunc *store.TruncatedError
		if !errors.Is(err, store.ErrTruncated) || !errors.As(err, &trunc) {
			t.Errorf("%s over a torn log: error = %v, want a *store.TruncatedError", name, err)
		}
	}
	csvPath := filepath.Join(t.TempDir(), "graph.csv")
	if err := run([]string{"exportgraph", "-log", path, "-out", csvPath}); !errors.Is(err, store.ErrTruncated) {
		t.Errorf("exportgraph over a torn log: error = %v, want ErrTruncated", err)
	}
	if err := run([]string{"exportgraph", "-log", path, "-out", csvPath, "-allow-truncated"}); err != nil {
		t.Fatalf("exportgraph -allow-truncated: %v", err)
	}
}

func TestCorruptLogRejected(t *testing.T) {
	path := generateLog(t)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	for name, args := range readingCommands(path) {
		if err := run(args); !errors.Is(err, store.ErrChecksum) && !errors.Is(err, store.ErrCorrupt) {
			t.Errorf("%s over a corrupted log: error = %v, want ErrChecksum or ErrCorrupt", name, err)
		}
	}
}

func TestCheckpointAndCompact(t *testing.T) {
	logPath := generateLog(t)
	ckptDir := filepath.Join(t.TempDir(), "ckpts")

	// checkpoint: builds a warm-restart bundle, leaves the log alone.
	if err := run([]string{"checkpoint", "-log", logPath, "-dir", ckptDir}); err != nil {
		t.Fatal(err)
	}
	logSize := func() int64 {
		st, err := os.Stat(logPath)
		if err != nil {
			t.Fatal(err)
		}
		return st.Size()
	}
	sizeBefore := logSize()
	if sizeBefore == 0 {
		t.Fatal("log emptied by checkpoint")
	}
	want, err := loadLogDataset(logPath, false)
	if err != nil {
		t.Fatal(err)
	}
	model, info, err := checkpoint.Restore(ckptDir)
	if err != nil {
		t.Fatal(err)
	}
	if info.Offset != sizeBefore {
		t.Fatalf("checkpoint offset %d, want full log %d", info.Offset, sizeBefore)
	}
	if model.Dataset().NumUsers() != want.NumUsers() || model.Dataset().NumRatings() != want.NumRatings() {
		t.Fatalf("checkpointed dataset %v, want %v", model.Dataset(), want)
	}

	// compact: folds the prefix and truncates the log.
	if err := run([]string{"compact", "-log", logPath, "-dir", ckptDir}); err != nil {
		t.Fatal(err)
	}
	if s := logSize(); s != 0 {
		t.Fatalf("log holds %d bytes after compact, want 0", s)
	}
	model2, info2, err := checkpoint.Restore(ckptDir)
	if err != nil {
		t.Fatal(err)
	}
	if info2.Offset != 0 {
		t.Fatalf("post-compact offset %d, want 0", info2.Offset)
	}
	if model2.Dataset().NumUsers() != want.NumUsers() || model2.Dataset().NumRatings() != want.NumRatings() {
		t.Fatalf("compacted dataset %v, want %v", model2.Dataset(), want)
	}

	// Flag validation.
	if err := run([]string{"checkpoint", "-log", logPath}); err == nil {
		t.Error("checkpoint without -dir accepted")
	}
	if err := run([]string{"compact", "-dir", ckptDir}); err == nil {
		t.Error("compact without -log accepted")
	}
}

func TestArgumentErrors(t *testing.T) {
	path := generateLog(t)
	cases := []struct {
		args []string
		want string // a substring of the error, if it must name something
	}{
		{nil, ""},
		{[]string{"bogus"}, ""},
		{[]string{"generate"}, ""}, // missing -out
		{[]string{"generate", "-preset", "nope", "-out", "x"}, ""},
		{[]string{"stats"}, ""}, // missing -log
		{[]string{"stats", "-log", "/nonexistent/events.log"}, ""},
		{[]string{"topk", "-log", path}, ""}, // missing -user
		{[]string{"topk", "-log", path, "-user", "1", "-k", "0"}, "-k 0"},
		{[]string{"topk", "-log", path, "-user", "1", "-k", "-2"}, "-k -2"},
		{[]string{"expertise"}, ""},            // missing flags
		{[]string{"export", "-log", path}, ""}, // missing -dir
		{[]string{"ingest", "-log", path, "-out", "y"}, "unknown subcommand"},
		{[]string{"exportlog", "-in", "x", "-log", "y"}, "unknown subcommand"},
		{[]string{"attack", "-bogus"}, "-bogus"},
		{[]string{"attack"}, "exactly one of -scenario or -dir"},
	}
	for _, c := range cases {
		err := run(c.args)
		if err == nil {
			t.Errorf("args %v: expected error", c.args)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("args %v: error %q does not name %q", c.args, err, c.want)
		}
	}
}

func TestPresetConfig(t *testing.T) {
	for _, name := range []string{"small", "medium", "paper"} {
		cfg, err := presetConfig(name)
		if err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s preset invalid: %v", name, err)
		}
	}
	if _, err := presetConfig("huge"); err == nil || !strings.Contains(err.Error(), "unknown preset") {
		t.Errorf("bad preset error = %v", err)
	}
}

func TestLoadDatasetHelpers(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.log")
	b := ratings.NewBuilder()
	b.AddUser("u")
	if err := writeLog(path, b.Build()); err != nil {
		t.Fatal(err)
	}
	d, err := loadLogDataset(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumUsers() != 1 || d.UserName(0) != "u" {
		t.Errorf("replayed %v, want the one user \"u\"", d)
	}
	if err := writeLog("/nonexistent-dir/x.log", b.Build()); err == nil {
		t.Error("write to bad path accepted")
	}
	if _, err := loadLogDataset("/nonexistent-dir/x.log", false); err == nil {
		t.Error("read of missing log accepted")
	}
}

func TestExportGraph(t *testing.T) {
	logPath := generateLog(t)
	dir := t.TempDir()

	// CSV from the log: a header plus one line per edge, matching the
	// derived model's web exactly.
	csvPath := filepath.Join(dir, "graph.csv")
	if err := run([]string{"exportgraph", "-log", logPath, "-out", csvPath}); err != nil {
		t.Fatal(err)
	}
	d, err := loadLogDataset(logPath, false)
	if err != nil {
		t.Fatal(err)
	}
	model, err := weboftrust.Derive(d)
	if err != nil {
		t.Fatal(err)
	}
	web := model.WebOfTrust()
	raw, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if lines[0] != "from,to,weight" {
		t.Fatalf("csv header = %q", lines[0])
	}
	if len(lines)-1 != web.NumEdges() {
		t.Fatalf("csv has %d edges, web %d", len(lines)-1, web.NumEdges())
	}

	// JSON must carry the same edges.
	jsonPath := filepath.Join(dir, "graph.json")
	if err := run([]string{"exportgraph", "-log", logPath, "-format", "json", "-out", jsonPath}); err != nil {
		t.Fatal(err)
	}
	jraw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var edges []struct {
		From   int     `json:"from"`
		To     int     `json:"to"`
		Weight float64 `json:"weight"`
	}
	if err := json.Unmarshal(jraw, &edges); err != nil {
		t.Fatalf("invalid json: %v", err)
	}
	if len(edges) != web.NumEdges() {
		t.Fatalf("json has %d edges, web %d", len(edges), web.NumEdges())
	}
	for _, e := range edges {
		if w, ok := findEdge(web, e.From, e.To); !ok || w != e.Weight {
			t.Fatalf("edge %+v not in web (ok=%v w=%v)", e, ok, w)
		}
	}

	// Checkpoint source serves the same graph.
	ckptDir := filepath.Join(dir, "ckpt")
	if err := run([]string{"checkpoint", "-log", logPath, "-dir", ckptDir}); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(ckptDir)
	if err != nil || len(entries) == 0 {
		t.Fatalf("no checkpoint written: %v", err)
	}
	ckptCSV := filepath.Join(dir, "from-ckpt.csv")
	if err := run([]string{"exportgraph", "-checkpoint", filepath.Join(ckptDir, entries[0].Name()), "-out", ckptCSV}); err != nil {
		t.Fatal(err)
	}
	craw, err := os.ReadFile(ckptCSV)
	if err != nil {
		t.Fatal(err)
	}
	if string(craw) != string(raw) {
		t.Error("checkpoint-sourced graph differs from log-sourced graph")
	}

	// Threshold policy produces a different (valid) dump.
	tauCSV := filepath.Join(dir, "tau.csv")
	if err := run([]string{"exportgraph", "-log", logPath, "-tau", "0.5", "-out", tauCSV}); err != nil {
		t.Fatal(err)
	}

	// Flag validation.
	if err := run([]string{"exportgraph"}); err == nil {
		t.Error("no source accepted")
	}
	if err := run([]string{"exportgraph", "-log", logPath, "-checkpoint", ckptCSV}); err == nil {
		t.Error("two sources accepted")
	}
	if err := run([]string{"exportgraph", "-in", logPath}); err == nil {
		t.Error("deleted -in source accepted")
	}
	if err := run([]string{"exportgraph", "-log", logPath, "-format", "dot"}); err == nil {
		t.Error("unknown format accepted")
	}
}

// findEdge looks an edge up in the web's rows.
func findEdge(web *weboftrust.Web, from, to int) (float64, bool) {
	cols, w := web.Neighbors(ratings.UserID(from))
	for i, j := range cols {
		if int(j) == to {
			return w[i], true
		}
	}
	return 0, false
}
