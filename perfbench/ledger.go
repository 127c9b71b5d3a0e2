package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
)

// digest is the SHA-256 over a pass's units in plan order: each unit's
// name, then its canonical bytes.
func digest(units []unit) string {
	h := sha256.New()
	for _, u := range units {
		fmt.Fprintf(h, "unit %s %d\n", u.name, len(u.canon))
		h.Write(u.canon)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// golden.json holds digests for seeds 0 to 15. defaultSeed is the seed a
// change is developed on; heldOutSeed is the one to recheck a gain claim on.
const (
	defaultSeed = 1
	heldOutSeed = 7
)

//go:embed golden.json
var goldenJSON []byte

// goldens maps workload name, then seed, to the digest every pass on that
// seed must reproduce.
type goldens map[string]map[string]string

func loadGoldens(data []byte) (goldens, error) {
	var g goldens
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("golden digests: %w", err)
	}
	return g, nil
}

// lookup returns the committed digest for a workload and seed, if any.
func (g goldens) lookup(workload string, seed uint64) (string, bool) {
	d, ok := g[workload][strconv.FormatUint(seed, 10)]
	return d, ok
}

// ledger counts simulated runs attempted and failed, and keeps the first
// few failure reasons for the report.
type ledger struct {
	attempted, failed int
	reasons           []string
}

func (l *ledger) fail(format string, args ...any) {
	if len(l.reasons) < 20 {
		l.reasons = append(l.reasons, fmt.Sprintf(format, args...))
	}
}

// failFrac is failed runs over runs attempted.
func (l *ledger) failFrac() float64 {
	if l.attempted == 0 {
		return 0
	}
	return float64(l.failed) / float64(l.attempted)
}

// errored books a pass that returned an error: each of its n expected
// runs counts as attempted and failed.
func (l *ledger) errored(n int, err error) {
	if n < 1 {
		n = 1
	}
	l.attempted += n
	l.failed += n
	l.fail("%v", err)
}

// check books one pass's units against the reference pass (nil for the
// reference itself) and the golden digest (empty when the seed has none).
// A unit fails if its own oracles found violations, if its canonical
// bytes differ from the reference's, or if the pass's digest differs from
// the golden one.
func (l *ledger) check(units, ref []unit, golden string) {
	if ref != nil && len(units) != len(ref) {
		l.errored(len(ref), fmt.Errorf("pass produced %d runs, reference %d", len(units), len(ref)))
		return
	}
	goldenOK := golden == "" || digest(units) == golden
	if !goldenOK {
		l.fail("digest %s differs from golden %s", digest(units), golden)
	}
	for i, u := range units {
		l.attempted++
		ok := goldenOK && len(u.violations) == 0
		for _, v := range u.violations {
			l.fail("%s", v)
		}
		if ref != nil && (u.name != ref[i].name || !bytes.Equal(u.canon, ref[i].canon)) {
			ok = false
			l.fail("%s: canonical bytes differ from the reference run", u.name)
		}
		if !ok {
			l.failed++
		}
	}
}
