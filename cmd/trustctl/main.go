// Command trustctl manages web-of-trust datasets and queries derived
// trust from the command line.
//
// Usage:
//
//	trustctl generate -preset small|medium|paper [-seed N] -out data.wot
//	trustctl stats    -in data.wot
//	trustctl topk     -in data.wot -user ID [-k N]
//	trustctl expertise -in data.wot -user ID
//	trustctl export   -in data.wot -dir DIR
//	trustctl ingest   -log events.log -out data.wot [-allow-truncated]
//	trustctl exportlog -in data.wot -log events.log
//	trustctl checkpoint -log events.log -dir DIR [-workers N] [-allow-truncated]
//	trustctl compact    -log events.log -dir DIR [-workers N] [-allow-truncated]
//	trustctl exportgraph (-in data.wot | -log events.log | -checkpoint FILE)
//	                     [-format csv|json] [-out FILE] [-tau T] [-cold-generosity K]
//	                     [-workers N] [-allow-truncated]
//	trustctl attack   (-scenario FILE | -dir DIR) [-json OUT] [-export-log FILE]
//
// Datasets are stored in the snapshot format of internal/store (CRC-32
// checked); "ingest" replays an append-only event log into a snapshot.
// "checkpoint" folds the log's complete prefix into a warm-restart
// checkpoint (internal/checkpoint) offline, so the next trustd boot
// restores instead of re-deriving; "compact" additionally truncates the
// folded prefix out of the log, bounding log growth. Both warm-start from
// an existing checkpoint in -dir when one is usable. A checkpoint holds
// the complete model, so every `trustd serve`, whatever its -shard, boots
// from the same one. Neither may run while a writer is appending or a
// trustd is tailing the log.
//
// "attack" runs adversarial scenarios (internal/adversary, seed corpus
// in scenarios/): each JSON file names a synth baseline, a set of seeded
// attack cohorts to inject, and pinned resistance assertions. The
// command renders the resistance metrics as tables, optionally writes
// the JSON report CI archives, exits non-zero when any assertion fails,
// and with -export-log renders the attacked dataset as an event log,
// written like "exportlog" writes a snapshot's.
//
// "exportgraph" dumps the binarised web of trust — the same graph trustd
// serves at /v1/neighbors and propagates at /v1/propagate — as a
// from,to,weight edge list (CSV or JSON) for offline analysis, built from
// a snapshot, an event log, or a warm-restart checkpoint file.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"weboftrust"
	"weboftrust/internal/checkpoint"
	"weboftrust/internal/ratings"
	"weboftrust/internal/store"
	"weboftrust/internal/synth"
	"weboftrust/internal/tables"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "trustctl:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: trustctl <generate|stats|topk|expertise|export|ingest|exportlog|exportgraph|checkpoint|compact|attack> [flags]")
	}
	switch args[0] {
	case "generate":
		return cmdGenerate(args[1:])
	case "exportlog":
		return cmdExportLog(args[1:])
	case "exportgraph":
		return cmdExportGraph(args[1:])
	case "checkpoint":
		return cmdCheckpoint(args[1:])
	case "compact":
		return cmdCompact(args[1:])
	case "stats":
		return cmdStats(args[1:])
	case "topk":
		return cmdTopK(args[1:])
	case "expertise":
		return cmdExpertise(args[1:])
	case "export":
		return cmdExport(args[1:])
	case "ingest":
		return cmdIngest(args[1:])
	case "attack":
		return cmdAttack(args[1:])
	default:
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

func presetConfig(name string) (synth.Config, error) {
	switch name {
	case "small":
		return synth.Small(), nil
	case "medium":
		return synth.Medium(), nil
	case "paper":
		return synth.PaperScale(), nil
	default:
		return synth.Config{}, fmt.Errorf("unknown preset %q (small, medium, paper)", name)
	}
}

func loadDataset(path string) (*ratings.Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return store.ReadSnapshot(f)
}

func saveDataset(path string, d *ratings.Dataset) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := store.WriteSnapshot(f, d); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeLog writes d's event stream as a new event log at path.
func writeLog(path string, d *ratings.Dataset) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := store.AppendDataset(store.NewLogWriter(f), d); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func cmdGenerate(args []string) error {
	fs := flag.NewFlagSet("generate", flag.ContinueOnError)
	preset := fs.String("preset", "medium", "dataset preset: small, medium or paper")
	seed := fs.Uint64("seed", 1, "generator seed")
	out := fs.String("out", "", "output snapshot path (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("generate: -out is required")
	}
	cfg, err := presetConfig(*preset)
	if err != nil {
		return err
	}
	cfg.Seed = *seed
	d, _, err := synth.Generate(cfg)
	if err != nil {
		return err
	}
	if err := saveDataset(*out, d); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %v\n", *out, d)
	return nil
}

func cmdStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ContinueOnError)
	in := fs.String("in", "", "input snapshot path (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("stats: -in is required")
	}
	d, err := loadDataset(*in)
	if err != nil {
		return err
	}
	fmt.Println(d.Stats())
	return nil
}

func cmdTopK(args []string) error {
	fs := flag.NewFlagSet("topk", flag.ContinueOnError)
	in := fs.String("in", "", "input snapshot path (required)")
	user := fs.Int("user", -1, "source user id (required)")
	k := fs.Int("k", 10, "how many users to return")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *user < 0 {
		return fmt.Errorf("topk: -in and -user are required")
	}
	d, err := loadDataset(*in)
	if err != nil {
		return err
	}
	if *user >= d.NumUsers() {
		return fmt.Errorf("topk: user %d out of range %d", *user, d.NumUsers())
	}
	model, err := weboftrust.Derive(d)
	if err != nil {
		return err
	}
	top := model.TopTrusted(weboftrust.UserID(*user), *k)
	t := tables.New("Rank", "User", "Name", "Derived trust").AlignRight(0, 1, 3).
		Title(fmt.Sprintf("Top trusted users for %s (user %d)", d.UserName(ratings.UserID(*user)), *user))
	for i, r := range top {
		t.AddRow(i+1, int(r.User), d.UserName(r.User), r.Score)
	}
	return t.Render(os.Stdout)
}

func cmdExpertise(args []string) error {
	fs := flag.NewFlagSet("expertise", flag.ContinueOnError)
	in := fs.String("in", "", "input snapshot path (required)")
	user := fs.Int("user", -1, "user id (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *user < 0 {
		return fmt.Errorf("expertise: -in and -user are required")
	}
	d, err := loadDataset(*in)
	if err != nil {
		return err
	}
	if *user >= d.NumUsers() {
		return fmt.Errorf("expertise: user %d out of range %d", *user, d.NumUsers())
	}
	model, err := weboftrust.Derive(d)
	if err != nil {
		return err
	}
	u := weboftrust.UserID(*user)
	e := model.Expertise(u)
	a := model.Affinity(u)
	t := tables.New("Category", "Expertise", "Affinity").AlignRight(1, 2).
		Title(fmt.Sprintf("Profile of %s (user %d)", d.UserName(u), *user))
	for c := 0; c < d.NumCategories(); c++ {
		t.AddRow(d.CategoryName(ratings.CategoryID(c)), e[c], a[c])
	}
	return t.Render(os.Stdout)
}

func cmdExport(args []string) error {
	fs := flag.NewFlagSet("export", flag.ContinueOnError)
	in := fs.String("in", "", "input snapshot path (required)")
	dir := fs.String("dir", "", "output directory for CSV files (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *dir == "" {
		return fmt.Errorf("export: -in and -dir are required")
	}
	d, err := loadDataset(*in)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		return err
	}
	files := make(map[string]*os.File)
	for _, name := range []string{"users", "objects", "reviews", "ratings", "trust"} {
		f, err := os.Create(filepath.Join(*dir, name+".csv"))
		if err != nil {
			return err
		}
		defer f.Close()
		files[name] = f
	}
	err = store.ExportCSV(store.CSVWriters{
		Users:   files["users"],
		Objects: files["objects"],
		Reviews: files["reviews"],
		Ratings: files["ratings"],
		Trust:   files["trust"],
	}, d)
	if err != nil {
		return err
	}
	fmt.Printf("exported %v to %s\n", d, *dir)
	return nil
}

func cmdIngest(args []string) error {
	fs := flag.NewFlagSet("ingest", flag.ContinueOnError)
	logPath := fs.String("log", "", "input event log path (required)")
	out := fs.String("out", "", "output snapshot path (required)")
	allowTruncated := fs.Bool("allow-truncated", false,
		"ingest the intact prefix of a log whose final record is torn (crash during append)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *logPath == "" || *out == "" {
		return fmt.Errorf("ingest: -log and -out are required")
	}
	return ingestLog(*logPath, *out, *allowTruncated)
}

func ingestLog(logPath, out string, allowTruncated bool) error {
	d, n, err := loadLogDataset(logPath, allowTruncated, "ingest")
	if err != nil {
		return err
	}
	if err := saveDataset(out, d); err != nil {
		return err
	}
	fmt.Printf("replayed %d events into %s: %v\n", n, out, d)
	return nil
}

// loadLogDataset replays an event log into a dataset, tolerating a torn
// final record when allowTruncated is set (the shared torn-record
// semantics of every log-consuming subcommand). cmd labels the warning.
func loadLogDataset(logPath string, allowTruncated bool, cmd string) (*ratings.Dataset, int, error) {
	f, err := os.Open(logPath)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	events, err := store.ReadLog(f)
	if err != nil {
		var trunc *store.TruncatedError
		if errors.As(err, &trunc) && allowTruncated {
			fmt.Fprintf(os.Stderr, "%s: torn final record; using %d events up to offset %d\n",
				cmd, len(events), trunc.Offset)
		} else {
			return nil, 0, fmt.Errorf("reading log: %w", err)
		}
	}
	b := ratings.NewBuilder()
	if err := store.Replay(events, b); err != nil {
		return nil, 0, err
	}
	return b.Build(), len(events), nil
}

func cmdCheckpoint(args []string) error {
	fs := flag.NewFlagSet("checkpoint", flag.ContinueOnError)
	logPath := fs.String("log", "", "input event log path (required)")
	dir := fs.String("dir", "", "checkpoint directory (required)")
	workers := fs.Int("workers", 0, "pipeline worker goroutines (0 = one per CPU)")
	allowTruncated := fs.Bool("allow-truncated", false,
		"fold the intact prefix of a log whose final record is torn (crash during append)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *logPath == "" || *dir == "" {
		return fmt.Errorf("checkpoint: -log and -dir are required")
	}
	res, err := checkpoint.WriteFromLog(*logPath, *dir, *allowTruncated, weboftrust.WithWorkers(*workers))
	if err != nil {
		return err
	}
	boot := "cold"
	if res.Warm {
		boot = "warm"
	}
	fmt.Printf("wrote %s at log offset %d (%s build, %d events replayed)\n",
		res.Path, res.Offset, boot, res.TailedEvents)
	return nil
}

func cmdCompact(args []string) error {
	fs := flag.NewFlagSet("compact", flag.ContinueOnError)
	logPath := fs.String("log", "", "event log to compact (required; rewritten in place)")
	dir := fs.String("dir", "", "checkpoint directory (required)")
	workers := fs.Int("workers", 0, "pipeline worker goroutines (0 = one per CPU)")
	allowTruncated := fs.Bool("allow-truncated", false,
		"fold the intact prefix of a log whose final record is torn (the torn bytes stay in the log)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *logPath == "" || *dir == "" {
		return fmt.Errorf("compact: -log and -dir are required")
	}
	res, err := checkpoint.Compact(*logPath, *dir, *allowTruncated, weboftrust.WithWorkers(*workers))
	if err != nil {
		return err
	}
	boot := "cold"
	if res.Warm {
		boot = "warm"
	}
	fmt.Printf("folded %d bytes (%d events, %s build) into %s; log now %d bytes\n",
		res.FoldedBytes, res.FoldedEvents, boot, res.Path, res.RemainderBytes)
	return nil
}

func cmdExportGraph(args []string) error {
	fs := flag.NewFlagSet("exportgraph", flag.ContinueOnError)
	in := fs.String("in", "", "input snapshot path")
	logPath := fs.String("log", "", "input event log path (replayed in full)")
	ckptPath := fs.String("checkpoint", "", "input warm-restart checkpoint file")
	format := fs.String("format", "csv", "output format: csv or json")
	out := fs.String("out", "", "output path (default stdout)")
	tau := fs.Float64("tau", -1, "binarise with a global score threshold instead of per-user top-k generosity (-1 = per-user top-k)")
	coldK := fs.Float64("cold-generosity", 0, "generosity fallback for users whose history cannot calibrate one")
	workers := fs.Int("workers", 0, "pipeline worker goroutines (0 = one per CPU)")
	allowTruncated := fs.Bool("allow-truncated", false,
		"replay the intact prefix of a log whose final record is torn")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sources := 0
	for _, s := range []string{*in, *logPath, *ckptPath} {
		if s != "" {
			sources++
		}
	}
	if sources != 1 {
		return fmt.Errorf("exportgraph: exactly one of -in, -log or -checkpoint is required")
	}
	if *format != "csv" && *format != "json" {
		return fmt.Errorf("exportgraph: unknown format %q (csv, json)", *format)
	}
	opts := []weboftrust.Option{weboftrust.WithWorkers(*workers)}
	if *tau >= 0 {
		opts = append(opts, weboftrust.WithWebThreshold(*tau))
	}
	if *coldK != 0 {
		opts = append(opts, weboftrust.WithWebColdStartGenerosity(*coldK))
	}

	var model *weboftrust.TrustModel
	switch {
	case *in != "":
		d, err := loadDataset(*in)
		if err != nil {
			return err
		}
		if model, err = weboftrust.Derive(d, opts...); err != nil {
			return err
		}
	case *logPath != "":
		d, _, err := loadLogDataset(*logPath, *allowTruncated, "exportgraph")
		if err != nil {
			return err
		}
		if model, err = weboftrust.Derive(d, opts...); err != nil {
			return err
		}
	default:
		var err error
		if model, _, err = checkpoint.ReadFile(*ckptPath, opts...); err != nil {
			return err
		}
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	web := model.WebOfTrust()
	if err := writeGraph(w, web, *format); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "exported web of trust: %d nodes, %d edges, policy %s\n",
		web.NumUsers(), web.NumEdges(), web.Policy())
	return nil
}

// writeGraph streams the web's edge list: CSV with a from,to,weight
// header, or a JSON array of {"from","to","weight"} objects.
func writeGraph(w io.Writer, web *weboftrust.Web, format string) error {
	bw := bufio.NewWriter(w)
	switch format {
	case "csv":
		if _, err := fmt.Fprintln(bw, "from,to,weight"); err != nil {
			return err
		}
		for u := 0; u < web.NumUsers(); u++ {
			to, weights := web.Neighbors(ratings.UserID(u))
			for i, j := range to {
				if _, err := fmt.Fprintf(bw, "%d,%d,%g\n", u, j, weights[i]); err != nil {
					return err
				}
			}
		}
	case "json":
		sep := "["
		for u := 0; u < web.NumUsers(); u++ {
			to, weights := web.Neighbors(ratings.UserID(u))
			for i, j := range to {
				if _, err := fmt.Fprintf(bw, "%s\n  {\"from\": %d, \"to\": %d, \"weight\": %g}", sep, u, j, weights[i]); err != nil {
					return err
				}
				sep = ","
			}
		}
		if sep == "[" {
			if _, err := fmt.Fprint(bw, "["); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(bw, "\n]"); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func cmdExportLog(args []string) error {
	fs := flag.NewFlagSet("exportlog", flag.ContinueOnError)
	in := fs.String("in", "", "input snapshot path (required)")
	logPath := fs.String("log", "", "output event log path (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *logPath == "" {
		return fmt.Errorf("exportlog: -in and -log are required")
	}
	d, err := loadDataset(*in)
	if err != nil {
		return err
	}
	if err := writeLog(*logPath, d); err != nil {
		return err
	}
	fmt.Printf("wrote %s from %s: %v\n", *logPath, *in, d)
	return nil
}
