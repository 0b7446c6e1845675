package index

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// hashModel is what one version of a hash index must answer: each key's
// ids in the order they were added.
type hashModel map[string][]int

func (m hashModel) clone() hashModel {
	c := make(hashModel, len(m))
	for k, ids := range m {
		c[k] = slices.Clone(ids)
	}
	return c
}

// hashVersion is a committed version beside its model.
type hashVersion struct {
	h *Hash
	m hashModel
}

// propertyKeys returns eight keys: four that share one chain, so
// builders copy chain prefixes and unlink leaves mid-chain, and four
// others.
func propertyKeys() []string {
	keys := []string{"c0"}
	for n := 1; len(keys) < 4; n++ {
		if k := fmt.Sprintf("c%d", n); slots(k) == slots("c0") {
			keys = append(keys, k)
		}
	}
	return append(keys, "a", "b", "hot", "x")
}

func checkVersions(t *testing.T, keys []string, vs []hashVersion, step string) {
	t.Helper()
	for n, v := range vs {
		for _, k := range keys {
			if got, want := v.h.Lookup(k), v.m[k]; !slices.Equal(got, want) {
				t.Fatalf("%s: version %d: Lookup(%q) = %v, want %v", step, n, k, got, want)
			}
		}
		if err := eachMatches(v); err != nil {
			t.Fatalf("%s: version %d: %v", step, n, err)
		}
	}
}

// eachMatches checks Hash.Each on one version against its model: every
// key the model holds exactly once, with its ids in order, and nothing
// else — no key the builders were not given (the table writers never
// give one for a NULL value), no emptied key, and no id a later
// builder appended in place or copied into its own leaves. Every id
// then comes exactly once, since no id is posted under two keys.
func eachMatches(v hashVersion) error {
	seen := map[string]bool{}
	var err error
	v.h.Each(func(key string, ids []int) {
		switch want, ok := v.m[key]; {
		case err != nil:
		case seen[key]:
			err = fmt.Errorf("Each yields %q twice", key)
		case !ok:
			err = fmt.Errorf("Each yields %q, which the version does not hold", key)
		case !slices.Equal(ids, want):
			err = fmt.Errorf("Each yields %q with %v, want %v", key, ids, want)
		}
		seen[key] = true
	})
	if err == nil && len(seen) != len(v.m) {
		err = fmt.Errorf("Each yields %d keys, the version holds %d", len(seen), len(v.m))
	}
	return err
}

// TestHashVersionsProperty checks every committed version of a hash
// index against its own model after every step of random builders: adds
// under hot keys and colliding keys, removals that empty keys which
// later come back, and one builder in three dropped without Commit, its
// successor starting from the same base, so in-place appends past a
// published length are overwritten by the next builder. Each is checked
// beside Lookup on every version (eachMatches).
func TestHashVersionsProperty(t *testing.T) {
	keys := propertyKeys()
	for seed := int64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		empty := NewHashBuilder(nil)
		vs := []hashVersion{{h: empty.Commit(), m: hashModel{}}}
		next := 0
		pick := func() string {
			if r.Intn(3) == 0 {
				return "hot"
			}
			return keys[r.Intn(len(keys))]
		}
		for round := 0; round < 60; round++ {
			base := vs[len(vs)-1]
			b, m := NewHashBuilder(base.h), base.m.clone()
			for op := r.Intn(8); op >= 0; op-- {
				k := pick()
				if ids := m[k]; len(ids) > 0 && r.Intn(5) < 2 {
					// Drop the key whole now and then, so it comes back empty.
					for _, id := range slices.Clone(ids) {
						if r.Intn(4) == 0 || len(ids) < 3 {
							b.Remove(k, id)
							m[k] = slices.DeleteFunc(m[k], func(x int) bool { return x == id })
						}
					}
					if len(m[k]) == 0 {
						delete(m, k)
					}
				} else {
					b.Add(k, next)
					m[k] = append(m[k], next)
					next++
				}
				checkVersions(t, keys, vs, fmt.Sprintf("seed %d round %d", seed, round))
			}
			if r.Intn(3) == 0 {
				continue // dropped: the next builder starts from the same base
			}
			vs = append(vs, hashVersion{h: b.Commit(), m: m})
			checkVersions(t, keys, vs, fmt.Sprintf("seed %d round %d commit", seed, round))
		}
	}
}

// TestHashCommitThenBuild checks that a builder goes on past Commit
// without touching the version it committed.
func TestHashCommitThenBuild(t *testing.T) {
	b := NewHashBuilder(nil)
	b.Add("k", 1)
	b.Add("k", 2)
	v := b.Commit()
	b.Remove("k", 1)
	b.Add("k", 3)
	w := b.Commit()
	if got := v.Lookup("k"); !slices.Equal(got, []int{1, 2}) {
		t.Fatalf("committed version changed under its builder: %v", got)
	}
	if got := w.Lookup("k"); !slices.Equal(got, []int{2, 3}) {
		t.Fatalf("successor = %v, want [2 3]", got)
	}
	if got := w.Lookup("missing"); got != nil {
		t.Fatalf("missing key = %v", got)
	}
}

// TestHashReadersBesideBuilder reads old versions while one builder at
// a time appends to the same keys in place, removes and commits, through
// both Lookup and Each. Under -race it fails if a builder writes
// anything a published version's reader reads.
func TestHashReadersBesideBuilder(t *testing.T) {
	keys := propertyKeys()
	b := NewHashBuilder(nil)
	m := hashModel{}
	for id := range 64 {
		k := keys[id%len(keys)]
		b.Add(k, id)
		m[k] = append(m[k], id)
	}
	var mu sync.Mutex
	vs := []hashVersion{{h: b.Commit(), m: m}}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				mu.Lock()
				seen := slices.Clone(vs)
				mu.Unlock()
				for _, v := range seen {
					for _, k := range keys {
						if got := v.h.Lookup(k); !slices.Equal(got, v.m[k]) {
							t.Errorf("Lookup(%q) = %v, want %v", k, got, v.m[k])
							return
						}
					}
					if err := eachMatches(v); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	r := rand.New(rand.NewSource(1))
	for id := 64; id < 2000; id++ {
		base := vs[len(vs)-1]
		b, m := NewHashBuilder(base.h), base.m.clone()
		k := keys[r.Intn(len(keys))]
		b.Add(k, id)
		m[k] = append(m[k], id)
		if id%7 == 0 {
			old := m[k][0]
			b.Remove(k, old)
			m[k] = m[k][1:]
		}
		if id%3 == 0 {
			continue // dropped
		}
		mu.Lock()
		vs = append(vs, hashVersion{h: b.Commit(), m: m})
		mu.Unlock()
	}
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}
	checkVersions(t, keys, vs, "end")
}
