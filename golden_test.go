package mcfs_test

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mcfs"
	"mcfs/internal/obs/journal"
	"mcfs/internal/obs/stream"
)

// goldenDigestsPath holds the SHA-256 of the journal and event-stream
// bytes each seeded configuration produces. A refactor of the engine,
// its visited table or the facade must leave both artifacts
// byte-identical; regenerating this file is a behavior change and needs
// its own justification.
const goldenDigestsPath = "testdata/seeded_artifacts.sha256"

// goldenConfigs are the seeded runs whose artifacts are pinned. The
// names match the mcfs command lines that produce the same bytes with
// -journal and -events.
var goldenConfigs = []struct {
	name string
	opts mcfs.Options
}{
	{
		// mcfs -fs verifs1 -fs verifs2 -bug write-hole-no-zero -depth 3 -max-ops 5000
		name: "verifs1-verifs2-write-hole-no-zero",
		opts: mcfs.Options{
			Targets: []mcfs.TargetSpec{
				{Kind: "verifs1", Backing: mcfs.BackingRAM},
				{Kind: "verifs2", Backing: mcfs.BackingRAM, Bugs: []string{mcfs.BugWriteHoleNoZero}},
			},
			MaxDepth: 3,
			MaxOps:   5000,
		},
	},
	{
		// mcfs -fs ext2 -fs ext4 -seed 7 -depth 3 -max-ops 600
		name: "ext2-ext4-seed7",
		opts: mcfs.Options{
			Targets: []mcfs.TargetSpec{
				{Kind: "ext2", Backing: mcfs.BackingRAM},
				{Kind: "ext4", Backing: mcfs.BackingRAM},
			},
			MaxDepth: 3,
			MaxOps:   600,
			Seed:     7,
		},
	},
}

// seededArtifacts runs one configuration with a file-backed journal and
// an event stream and returns the journal bytes and the NDJSON event
// bytes, encoded exactly as mcfs -journal and -events write them.
func seededArtifacts(t *testing.T, opts mcfs.Options) (jbytes, ebytes []byte) {
	t.Helper()
	jpath := filepath.Join(t.TempDir(), "journal.jsonl")
	jw, err := journal.Create(jpath, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	bus := stream.New(stream.Options{})
	sub := bus.Subscribe(1 << 16)
	defer sub.Close()
	opts.Journal = jw
	opts.Stream = bus
	s, err := mcfs.NewSession(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res := s.Run()
	if res.Err != nil {
		t.Fatalf("run failed: %v", res.Err)
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
	if n := sub.Dropped(); n > 0 {
		t.Fatalf("event subscriber dropped %d events", n)
	}
	var events bytes.Buffer
	enc := json.NewEncoder(&events)
	for _, ev := range sub.Drain() {
		if err := enc.Encode(ev); err != nil {
			t.Fatal(err)
		}
	}
	jbytes, err = os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	return jbytes, events.Bytes()
}

// loadGoldenDigests parses "<sha256>  <name>" lines.
func loadGoldenDigests(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(goldenDigestsPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 2 {
			t.Fatalf("%s: malformed line %q", goldenDigestsPath, sc.Text())
		}
		want[fields[1]] = fields[0]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestSeededArtifactsGolden pins the journal and event-stream bytes of
// two seeded runs — one that finds a bug, one that exhausts its budget
// on kernel file systems — so a refactor that claims to keep both
// byte-identical is checked rather than trusted.
func TestSeededArtifactsGolden(t *testing.T) {
	want := loadGoldenDigests(t)
	var got strings.Builder
	for _, c := range goldenConfigs {
		jb, eb := seededArtifacts(t, c.opts)
		for _, a := range []struct {
			name  string
			bytes []byte
		}{
			{c.name + ".journal.jsonl", jb},
			{c.name + ".events.ndjson", eb},
		} {
			sum := fmt.Sprintf("%x", sha256.Sum256(a.bytes))
			fmt.Fprintf(&got, "%s  %s\n", sum, a.name)
			if len(a.bytes) == 0 {
				t.Errorf("%s: empty artifact", a.name)
			}
			if want[a.name] != sum {
				t.Errorf("%s: sha256 %s, want %s", a.name, sum, want[a.name])
			}
		}
	}
	if t.Failed() {
		t.Logf("digests of this tree:\n%s", got.String())
	}
}
