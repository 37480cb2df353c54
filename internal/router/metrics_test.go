package router_test

// The /metrics exposition contract, checked by one parser on every page
// the cluster exposes: a pending trustd, a loaded trustd whose
// conditional families are all present, and the router.

import (
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"weboftrust"
	"weboftrust/internal/router"
	"weboftrust/internal/server"
	"weboftrust/internal/synth"
)

// checkExposition parses a Prometheus text page and fails t on every
// breach of the contract: each sample's family has exactly one # HELP
// and one # TYPE (counter or gauge) before its first sample, a family's
// lines are contiguous and never repeat, and every value parses. It
// returns the page's families.
func checkExposition(t *testing.T, page, body string) map[string]bool {
	t.Helper()
	type family struct{ help, typ, samples int }
	families := map[string]*family{}
	var cur string
	enter := func(name string, ln int) *family {
		if name != cur {
			if _, ok := families[name]; ok {
				t.Errorf("%s line %d: family %s repeats after another family", page, ln, name)
			}
			families[name] = &family{}
			cur = name
		}
		return families[name]
	}
	for i, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		ln := i + 1
		f := strings.Fields(line)
		switch {
		case strings.HasPrefix(line, "# HELP ") && len(f) >= 4:
			fam := enter(f[2], ln)
			if fam.samples > 0 {
				t.Errorf("%s line %d: HELP after samples: %q", page, ln, line)
			}
			fam.help++
		case strings.HasPrefix(line, "# TYPE ") && len(f) == 4:
			fam := enter(f[2], ln)
			if (f[3] != "counter" && f[3] != "gauge") || fam.samples > 0 {
				t.Errorf("%s line %d: TYPE not counter or gauge, or after samples: %q", page, ln, line)
			}
			fam.typ++
		case len(f) == 2 && !strings.HasPrefix(line, "#"):
			name, _, _ := strings.Cut(f[0], "{")
			fam := enter(name, ln)
			if fam.help != 1 || fam.typ != 1 {
				t.Errorf("%s line %d: sample of %s after %d HELP and %d TYPE lines, want 1 each", page, ln, name, fam.help, fam.typ)
			}
			if _, err := strconv.ParseFloat(f[1], 64); err != nil {
				t.Errorf("%s line %d: value of %s does not parse: %v", page, ln, name, err)
			}
			fam.samples++
		default:
			t.Errorf("%s line %d: not a HELP, TYPE or sample line: %q", page, ln, line)
		}
	}
	names := make(map[string]bool, len(families))
	for name := range families {
		names[name] = true
	}
	return names
}

// scrape GETs /metrics from base and checks its exposition.
func scrape(t *testing.T, page, base string) map[string]bool {
	t.Helper()
	code, _, body := fetch(t, base, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("%s /metrics: %d", page, code)
	}
	fams := checkExposition(t, page, string(body))
	t.Logf("%s: %d families", page, len(fams))
	return fams
}

// TestMetricsExposition checks the exposition contract on trustd while
// pending, on trustd loaded with every conditional family present (rank,
// anomaly and an appleseed landmark sketch forced, a checkpoint status
// set, a web built), and on the router fronting it.
func TestMetricsExposition(t *testing.T) {
	pending := httptest.NewServer(server.NewPending(server.Options{}).Handler())
	t.Cleanup(pending.Close)
	scrape(t, "pending trustd", pending.URL)

	d, _, err := synth.Generate(synth.Small())
	if err != nil {
		t.Fatal(err)
	}
	model, err := weboftrust.Derive(d)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(model, 0, server.Options{})
	loaded := httptest.NewServer(srv.Handler())
	t.Cleanup(loaded.Close)
	for _, p := range []string{
		"/v1/topk?user=3&k=5",
		"/v1/rank?k=5",
		"/v1/anomaly/top?k=5",
		"/v1/propagate?algo=appleseed&user=3&k=5&approx=landmark",
	} {
		if code, _, body := fetch(t, loaded.URL, p); code != http.StatusOK {
			t.Fatalf("loaded trustd %s: %d %s", p, code, body)
		}
	}
	if _, _, err := server.NewCheckpointer(srv, t.TempDir(), 0, 0).WriteNow(); err != nil {
		t.Fatal(err)
	}
	fams := scrape(t, "loaded trustd", loaded.URL)
	for _, want := range []string{
		"trustd_model_version", "trustd_rank_iterations", "trustd_anomaly_scored_users",
		"trustd_anomaly_max_score", "trustd_landmark_count", "trustd_checkpoint_age_seconds",
		"trustd_web_edges",
	} {
		if !fams[want] {
			t.Errorf("loaded trustd /metrics lacks %s", want)
		}
	}

	rt, err := router.New(router.Config{Shards: [][]string{{loaded.URL}}, StaleEntries: 8})
	if err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(rt.Handler())
	t.Cleanup(rts.Close)
	if !scrape(t, "router", rts.URL)["trustrouter_stale_entries"] {
		t.Errorf("router /metrics lacks trustrouter_stale_entries with stale serving on")
	}
}
