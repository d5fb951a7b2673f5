package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// group is one named part of a digest. A scalar group keeps its value in
// clear; a block group keeps a short hash of many values. ops is how many
// operations (missions or sweep points) the group covers; zero means the
// group describes the whole round.
type group struct {
	Name  string `json:"name"`
	Value string `json:"value"`
	Ops   int    `json:"ops,omitempty"`
}

// digest is the simulated outcome of one round: every statistic a speed-only
// change must leave identical, in a fixed order.
type digest []group

func (d *digest) scalar(name string, v any) {
	*d = append(*d, group{Name: name, Value: fmt.Sprint(v)})
}

func (d *digest) block(name string, ops int, values []string) {
	h := sha256.Sum256([]byte(strings.Join(values, "\n")))
	*d = append(*d, group{Name: name, Value: hex.EncodeToString(h[:8]), Ops: ops})
}

func (d digest) sum() string {
	h := sha256.New()
	for _, g := range d {
		fmt.Fprintf(h, "%s=%s\n", g.Name, g.Value)
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// diff compares d against want. It returns a description of the first
// group that differs ("" when none does) and how many of total operations
// the differing groups cover.
func (d digest) diff(want digest, total int) (first string, failed int) {
	if len(d) != len(want) {
		return fmt.Sprintf("digest has %d groups, want %d", len(d), len(want)), total
	}
	for i, g := range d {
		w := want[i]
		if g.Name == w.Name && g.Value == w.Value {
			continue
		}
		if first == "" {
			first = fmt.Sprintf("%s=%s, want %s=%s", g.Name, g.Value, w.Name, w.Value)
		}
		if g.Ops == 0 || g.Name != w.Name {
			return first, total
		}
		failed += g.Ops
	}
	return first, failed
}

// goldenFile holds the committed digests of one workload, one per seed.
// RecordedSeed is the seed quoted in results; HeldOutSeed is kept for
// re-checking a claim on a seed nobody tuned against.
type goldenFile struct {
	Workload     string            `json:"workload"`
	RecordedSeed uint64            `json:"recorded_seed"`
	HeldOutSeed  uint64            `json:"held_out_seed"`
	Seeds        map[string]golden `json:"seeds"`
}

type golden struct {
	Sum    string `json:"sum"`
	Groups digest `json:"groups"`
}

const (
	recordedSeed = 1
	heldOutSeed  = 20170605
)

func goldenPath(dir, workload string) string {
	return filepath.Join(dir, workload+".json")
}

func readGoldenFile(dir, workload string) (goldenFile, error) {
	gf := goldenFile{Workload: workload, RecordedSeed: recordedSeed, HeldOutSeed: heldOutSeed, Seeds: map[string]golden{}}
	data, err := os.ReadFile(goldenPath(dir, workload))
	if errors.Is(err, fs.ErrNotExist) {
		return gf, nil
	}
	if err != nil {
		return gf, err
	}
	if err := json.Unmarshal(data, &gf); err != nil {
		return gf, fmt.Errorf("golden %s: %w", workload, err)
	}
	return gf, nil
}

// loadGolden returns the committed digest of (workload, seed), or nil when
// none is committed.
func loadGolden(dir, workload string, seed uint64) (digest, error) {
	gf, err := readGoldenFile(dir, workload)
	if err != nil {
		return nil, err
	}
	g, ok := gf.Seeds[strconv.FormatUint(seed, 10)]
	if !ok {
		return nil, nil
	}
	if g.Groups.sum() != g.Sum {
		return nil, fmt.Errorf("golden %s seed %d: stored sum %s does not match its groups", workload, seed, g.Sum)
	}
	return g.Groups, nil
}

func storeGolden(dir, workload string, seed uint64, d digest) error {
	gf, err := readGoldenFile(dir, workload)
	if err != nil {
		return err
	}
	gf.Seeds[strconv.FormatUint(seed, 10)] = golden{Sum: d.sum(), Groups: d}
	// One seed per line, in seed order, so a changed golden diffs by seed.
	seeds := make([]uint64, 0, len(gf.Seeds))
	for k := range gf.Seeds {
		s, err := strconv.ParseUint(k, 10, 64)
		if err != nil {
			return fmt.Errorf("golden %s: seed %q: %w", workload, k, err)
		}
		seeds = append(seeds, s)
	}
	slices.Sort(seeds)
	var b strings.Builder
	fmt.Fprintf(&b, "{\n \"workload\": %q,\n \"recorded_seed\": %d,\n \"held_out_seed\": %d,\n \"seeds\": {\n",
		gf.Workload, gf.RecordedSeed, gf.HeldOutSeed)
	for i, s := range seeds {
		line, err := json.Marshal(gf.Seeds[strconv.FormatUint(s, 10)])
		if err != nil {
			return err
		}
		sep := ","
		if i == len(seeds)-1 {
			sep = ""
		}
		fmt.Fprintf(&b, "  \"%d\": %s%s\n", s, line, sep)
	}
	b.WriteString(" }\n}\n")
	return os.WriteFile(goldenPath(dir, workload), []byte(b.String()), 0o644)
}
