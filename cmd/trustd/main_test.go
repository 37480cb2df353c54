package main

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"weboftrust/internal/ratings"
	"weboftrust/internal/server"
	"weboftrust/internal/store"
	"weboftrust/internal/synth"
)

func TestRunUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"bogus"},
		{"chaosproxy"},                           // deleted subcommand
		{"serve"},                                // no -log
		{"serve", "-log", "/does/not/exist.log"}, // unreadable log
	} {
		if err := run(args); err == nil {
			t.Errorf("run(%q) accepted", args)
		}
	}
}

func writeLog(t *testing.T) (string, *ratings.Dataset) {
	t.Helper()
	cfg := synth.Small()
	cfg.NumUsers = 50
	cfg.TotalObjects = 25
	d, _, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "events.log")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	lw := store.NewLogWriter(f)
	if err := store.AppendDataset(lw, d); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path, d
}

func freePort(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// End-to-end: serve a log over HTTP, watch the tailer fold in an appended
// batch, then shut down gracefully on SIGTERM.
func TestServeTailAndShutdown(t *testing.T) {
	logPath, d := writeLog(t)
	addr := freePort(t)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"serve", "-addr", addr, "-log", logPath, "-poll", "20ms"})
	}()
	base := "http://" + addr

	waitOK := func(url string) *http.Response {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			resp, err := http.Get(url)
			if err == nil && resp.StatusCode == http.StatusOK {
				return resp
			}
			if err == nil {
				resp.Body.Close()
			}
			if time.Now().After(deadline) {
				t.Fatalf("GET %s never succeeded (last err %v)", url, err)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	resp := waitOK(base + "/healthz")
	resp.Body.Close()

	var stats server.StatsResponse
	resp = waitOK(base + "/v1/stats")
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Dataset.Users != d.NumUsers() || stats.Version != 1 {
		t.Fatalf("initial stats = %+v", stats)
	}

	// Append a valid batch: a new user reviewing a new object, rated by
	// an existing user. The tailer must pick it up and bump the version.
	f, err := os.OpenFile(logPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	lw := store.NewLogWriter(f)
	for _, ev := range []store.Event{
		{Kind: store.EvAddUser, Name: "late-arrival"},
		{Kind: store.EvAddObject, Category: 0, Name: ""},
		{Kind: store.EvAddReview, User: ratings.UserID(d.NumUsers()), Object: ratings.ObjectID(d.NumObjects())},
		{Kind: store.EvAddRating, User: 1, Review: ratings.ReviewID(d.NumReviews()), Level: 5},
	} {
		if err := lw.Append(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := lw.Flush(); err != nil {
		t.Fatal(err)
	}
	f.Close()

	deadline := time.Now().Add(5 * time.Second)
	for {
		resp = waitOK(base + "/v1/stats")
		if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if stats.Version >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("tailer never swapped: %+v", stats)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if stats.Dataset.Users != d.NumUsers()+1 {
		t.Errorf("post-swap users = %d, want %d", stats.Dataset.Users, d.NumUsers()+1)
	}

	// The new user must be queryable.
	resp = waitOK(fmt.Sprintf("%s/v1/topk?user=%d&k=3", base, d.NumUsers()))
	resp.Body.Close()

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve exited with %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serve did not shut down on SIGTERM")
	}
}

// End-to-end warm restart: a first daemon writes a shutdown checkpoint;
// a second boots from it, surfaces the checkpoint in /v1/stats, and keeps
// tailing.
func TestServeCheckpointWarmRestart(t *testing.T) {
	logPath, d := writeLog(t)
	ckptDir := filepath.Join(filepath.Dir(logPath), "ckpts")

	getStats := func(t *testing.T, base string) server.StatsResponse {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			resp, err := http.Get(base + "/v1/stats")
			if err == nil && resp.StatusCode == http.StatusOK {
				var stats server.StatsResponse
				if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				return stats
			}
			if err == nil {
				resp.Body.Close()
			}
			if time.Now().After(deadline) {
				t.Fatalf("stats never came up (last err %v)", err)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	serve := func(addr string) chan error {
		done := make(chan error, 1)
		go func() {
			done <- run([]string{"serve", "-addr", addr, "-log", logPath, "-poll", "20ms",
				"-checkpoint-dir", ckptDir, "-checkpoint-interval", "1h"})
		}()
		return done
	}
	shutdown := func(t *testing.T, done chan error) {
		t.Helper()
		if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("serve exited with %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("serve did not shut down on SIGTERM")
		}
	}

	addr := freePort(t)
	done := serve(addr)
	stats := getStats(t, "http://"+addr)
	if stats.Dataset.Users != d.NumUsers() {
		t.Fatalf("cold stats = %+v", stats)
	}
	shutdown(t, done)

	// The shutdown flush must have produced a checkpoint.
	entries, err := os.ReadDir(ckptDir)
	if err != nil || len(entries) == 0 {
		t.Fatalf("no checkpoint after shutdown (err %v)", err)
	}

	// Second boot: warm, same model, checkpoint block in stats.
	addr2 := freePort(t)
	done2 := serve(addr2)
	stats2 := getStats(t, "http://"+addr2)
	if stats2.Dataset.Users != d.NumUsers() {
		t.Fatalf("warm stats = %+v", stats2)
	}

	// The warm daemon still tails: append a batch and watch it land.
	f, err := os.OpenFile(logPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	lw := store.NewLogWriter(f)
	for _, ev := range []store.Event{
		{Kind: store.EvAddUser, Name: "after-restart"},
		{Kind: store.EvAddObject, Category: 0, Name: ""},
		{Kind: store.EvAddReview, User: ratings.UserID(d.NumUsers()), Object: ratings.ObjectID(d.NumObjects())},
	} {
		if err := lw.Append(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := lw.Flush(); err != nil {
		t.Fatal(err)
	}
	f.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		stats2 = getStats(t, "http://"+addr2)
		if stats2.Dataset.Users == d.NumUsers()+1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("warm daemon never ingested the tail: %+v", stats2)
		}
		time.Sleep(20 * time.Millisecond)
	}
	shutdown(t, done2)

	// The second shutdown checkpointed the grown model.
	stats3 := func() server.StatsResponse {
		addr3 := freePort(t)
		done3 := serve(addr3)
		s := getStats(t, "http://"+addr3)
		shutdown(t, done3)
		return s
	}()
	if stats3.Dataset.Users != d.NumUsers()+1 {
		t.Fatalf("third boot lost the tail: %+v", stats3)
	}
}
