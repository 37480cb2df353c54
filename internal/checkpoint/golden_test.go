package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"runtime"
	"testing"

	"weboftrust"
	"weboftrust/internal/golden"
	"weboftrust/internal/synth"
)

// TestBundleGolden pins the bundle's bytes to testdata/bundle.golden:
// per seed-1 Small and Medium model, the SHA-256 of Write at a fixed
// offset and log size, and of Write over what Read restored from those
// bytes. -update rewrites the file; a change that means to move a digest
// says which and why. The bundle stores float bits, and other
// architectures may fuse multiply-adds, so only amd64 checks.
func TestBundleGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("bundle bytes are pinned on amd64, not %s", runtime.GOARCH)
	}
	var got []byte
	for _, c := range []struct {
		name string
		cfg  synth.Config
	}{{"small", synth.Small()}, {"medium", synth.Medium()}} {
		c.cfg.Seed = 1
		d, _, err := synth.Generate(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		m, err := weboftrust.Derive(d)
		if err != nil {
			t.Fatal(err)
		}
		var written bytes.Buffer
		if err := Write(&written, m, 4096, 8192); err != nil {
			t.Fatal(err)
		}
		restored, info, err := Read(bytes.NewReader(written.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		var again bytes.Buffer
		if err := Write(&again, restored, info.Offset, info.LogSize); err != nil {
			t.Fatal(err)
		}
		got = fmt.Appendf(got, "%s/write %x\n", c.name, sha256.Sum256(written.Bytes()))
		got = fmt.Appendf(got, "%s/roundtrip %x\n", c.name, sha256.Sum256(again.Bytes()))
	}
	golden.Check(t, "testdata/bundle.golden", got)
}
