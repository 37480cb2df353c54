package checkpoint

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"weboftrust/internal/store"
)

// TestLoadWarmEqualsCold pins "restored equals derived" on the one load
// path: Load over a checkpoint directory writes the same bundle bytes
// (Write at equal offsets) as a cold Load of the same history — after a
// mid-log checkpoint, after Compact (against a cold load of the log as it
// was before compaction), and with a torn final record, where both sides
// also stop at the same offset with Torn set.
func TestLoadWarmEqualsCold(t *testing.T) {
	d := smallDataset(t)
	raw, err := os.ReadFile(writeLog(t, t.TempDir(), d))
	if err != nil {
		t.Fatal(err)
	}
	// The byte offset after half the records.
	events, err := store.ReadLog(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	lr := store.NewLogReader(bytes.NewReader(raw), 0)
	for range len(events) / 2 {
		if _, err := lr.Next(); err != nil {
			t.Fatal(err)
		}
	}
	cut := lr.Offset()

	// midLog checkpoints the log's first half, then appends the rest and
	// tail.
	midLog := func(t *testing.T, tail []byte) (string, string) {
		t.Helper()
		root := t.TempDir()
		logPath, dir := filepath.Join(root, "events.log"), filepath.Join(root, "ckpts")
		if err := os.WriteFile(logPath, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := WriteFromLog(logPath, dir, false); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(logPath, append(bytes.Clone(raw), tail...), 0o644); err != nil {
			t.Fatal(err)
		}
		return logPath, dir
	}
	load := func(t *testing.T, logPath, dir string) (*Loaded, []byte) {
		t.Helper()
		l, err := Load(logPath, dir)
		if err != nil {
			t.Fatal(err)
		}
		if l.Warm() != (dir != "") {
			t.Fatalf("Load(%q) warm = %v", dir, l.Warm())
		}
		var buf bytes.Buffer
		if err := Write(&buf, l.Model, 0, 0); err != nil {
			t.Fatal(err)
		}
		return l, buf.Bytes()
	}

	t.Run("mid-log checkpoint", func(t *testing.T) {
		logPath, dir := midLog(t, nil)
		warm, wb := load(t, logPath, dir)
		cold, cb := load(t, logPath, "")
		if !bytes.Equal(wb, cb) {
			t.Fatal("warm bundle differs from cold")
		}
		if warm.Offset != cold.Offset || warm.Replayed != len(events)-len(events)/2 || warm.Torn || cold.Torn {
			t.Fatalf("warm %+v, cold %+v", warm, cold)
		}
	})

	t.Run("after compact", func(t *testing.T) {
		logPath, dir := midLog(t, nil)
		_, cb := load(t, logPath, "")
		if _, err := Compact(logPath, dir, false); err != nil {
			t.Fatal(err)
		}
		warm, wb := load(t, logPath, dir)
		if !bytes.Equal(wb, cb) {
			t.Fatal("warm bundle after compaction differs from the cold load before it")
		}
		if warm.Offset != 0 || warm.Replayed != 0 || warm.Builder != nil {
			t.Fatalf("warm after compaction %+v, want nothing replayed at offset 0", warm)
		}
	})

	t.Run("torn final record", func(t *testing.T) {
		// The first 3 bytes of a record a crashed writer never finished.
		logPath, dir := midLog(t, []byte{0x0a, byte(store.EvAddUser), 'x'})
		warm, wb := load(t, logPath, dir)
		cold, cb := load(t, logPath, "")
		if !bytes.Equal(wb, cb) {
			t.Fatal("warm bundle differs from cold")
		}
		if !warm.Torn || !cold.Torn || warm.Offset != cold.Offset || warm.Offset != int64(len(raw)) {
			t.Fatalf("warm %+v, cold %+v, want both torn at %d", warm, cold, len(raw))
		}
	})
}
