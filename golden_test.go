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

// goldenSwarm is the pinned swarm run:
// mcfs -fs ext2 -fs ext4 -swarm 3 -depth 3 -max-ops 300. Its workers use
// independent tables and find no bug, so each runs to its budget and
// its own records and events do not depend on how the workers
// interleave. Only the bus's global Seq does, so it is zeroed.
const (
	goldenSwarmName    = "ext2-ext4-swarm3"
	goldenSwarmWorkers = 3
)

// swarmArtifacts runs the pinned swarm with a shared journal and event
// stream and returns, per worker (index w is worker w+1), the worker's
// journal records and its events with Seq zeroed, each encoded as JSON
// lines.
func swarmArtifacts(t *testing.T) (journals, events [][]byte) {
	t.Helper()
	var jbuf bytes.Buffer
	jw := journal.NewWriter(&jbuf, journal.Options{})
	bus := stream.New(stream.Options{})
	sub := bus.Subscribe(1 << 16)
	defer sub.Close()
	sr, err := mcfs.SwarmRun(mcfs.SwarmOptions{
		Workers: goldenSwarmWorkers,
		Journal: jw,
		Stream:  bus,
	}, func(int64) (mcfs.Options, error) {
		return mcfs.Options{
			Targets: []mcfs.TargetSpec{
				{Kind: "ext2", Backing: mcfs.BackingRAM},
				{Kind: "ext4", Backing: mcfs.BackingRAM},
			},
			MaxDepth: 3,
			MaxOps:   300,
		}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if sr.Err != nil || sr.Bug != nil {
		t.Fatalf("swarm: err %v, bug %v", sr.Err, sr.Bug)
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
	if n := sub.Dropped(); n > 0 {
		t.Fatalf("event subscriber dropped %d events", n)
	}
	recs, err := journal.Read(&jbuf)
	if err != nil {
		t.Fatal(err)
	}
	evs := sub.Drain()
	for w := 1; w <= goldenSwarmWorkers; w++ {
		var jb, eb bytes.Buffer
		jenc, eenc := json.NewEncoder(&jb), json.NewEncoder(&eb)
		for _, r := range journal.WorkerRecords(recs, w) {
			if err := jenc.Encode(r); err != nil {
				t.Fatal(err)
			}
		}
		for _, ev := range evs {
			if ev.Worker != w {
				continue
			}
			ev.Seq = 0
			if err := eenc.Encode(ev); err != nil {
				t.Fatal(err)
			}
		}
		journals = append(journals, jb.Bytes())
		events = append(events, eb.Bytes())
	}
	return journals, events
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
// on kernel file systems — and each worker's share of a three-worker
// swarm, so a refactor that claims to keep them byte-identical is
// checked rather than trusted.
func TestSeededArtifactsGolden(t *testing.T) {
	type artifact struct {
		name  string
		bytes []byte
	}
	var artifacts []artifact
	for _, c := range goldenConfigs {
		jb, eb := seededArtifacts(t, c.opts)
		artifacts = append(artifacts,
			artifact{c.name + ".journal.jsonl", jb},
			artifact{c.name + ".events.ndjson", eb})
	}
	journals, events := swarmArtifacts(t)
	for i := range journals {
		prefix := fmt.Sprintf("%s.w%d", goldenSwarmName, i+1)
		artifacts = append(artifacts,
			artifact{prefix + ".journal.jsonl", journals[i]},
			artifact{prefix + ".events.ndjson", events[i]})
	}

	want := loadGoldenDigests(t)
	var got strings.Builder
	for _, a := range artifacts {
		sum := fmt.Sprintf("%x", sha256.Sum256(a.bytes))
		fmt.Fprintf(&got, "%s  %s\n", sum, a.name)
		if len(a.bytes) == 0 {
			t.Errorf("%s: empty artifact", a.name)
		}
		if want[a.name] != sum {
			t.Errorf("%s: sha256 %s, want %s", a.name, sum, want[a.name])
		}
	}
	if t.Failed() {
		t.Logf("digests of this tree:\n%s", got.String())
	}
}
