package serve

import (
	"fmt"
	"sync"
	"testing"

	"parcolor"
)

func mkResult(n int) CachedResult {
	return CachedResult{Colors: make([]int32, n), M: n, DistinctColors: 1}
}

func TestCacheHitMissCounters(t *testing.T) {
	c := NewCache(1 << 20)
	if _, ok := c.Get("a"); ok {
		t.Fatal("empty cache hit")
	}
	c.Put("a", mkResult(10))
	if _, ok := c.Get("a"); !ok {
		t.Fatal("miss after Put")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats wrong: %+v", st)
	}
}

func TestCacheEvictsLRUUnderByteBudget(t *testing.T) {
	// Each entry ≈ 4*100 + 1 + 160 = 561 bytes; budget fits two.
	c := NewCache(1200)
	c.Put("a", mkResult(100))
	c.Put("b", mkResult(100))
	c.Get("a") // a is now more recent than b
	c.Put("c", mkResult(100))
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted (LRU)")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a (recently used) was evicted")
	}
	if _, ok := c.Get("c"); !ok {
		t.Fatal("c (new) was evicted")
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("stats wrong: %+v", st)
	}
	if st.Bytes > st.Budget {
		t.Fatalf("bytes %d over budget %d", st.Bytes, st.Budget)
	}
}

func TestCacheRejectsOversizedEntry(t *testing.T) {
	c := NewCache(100)
	c.Put("huge", mkResult(1000))
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("oversized entry admitted: %+v", st)
	}
}

func TestCacheDisabledByNonPositiveBudget(t *testing.T) {
	c := NewCache(-1)
	c.Put("a", mkResult(10))
	if _, ok := c.Get("a"); ok {
		t.Fatal("disabled cache returned a hit")
	}
}

func TestCacheConcurrent(t *testing.T) {
	c := NewCache(1 << 16)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", (w*7+i)%32)
				if _, ok := c.Get(key); !ok {
					c.Put(key, mkResult(16))
				}
			}
		}(w)
	}
	wg.Wait()
	st := c.Stats()
	if st.Bytes > st.Budget {
		t.Fatalf("bytes %d over budget %d", st.Bytes, st.Budget)
	}
}

// TestKeyCanonicalizationProperties pins the cache-key contract without
// the HTTP layer: option changes that can alter the result change the
// key; result-invariant knobs do not.
func TestKeyCanonicalizationProperties(t *testing.T) {
	g := parcolor.GenerateGraph("mixed", 80, 1)
	base := parcolor.Options{Algorithm: parcolor.Deterministic}

	k0 := KeyForGraph(g, "trivial", base)
	if k0 != KeyForGraph(g, "trivial", base) {
		t.Fatal("key not deterministic")
	}
	// Result-invariant knobs share the cache line.
	inv := base
	inv.Workers = 7
	inv.SkipVerify = true
	if KeyForGraph(g, "trivial", inv) != k0 {
		t.Fatal("result-invariant options changed the key")
	}
	// Result-affecting knobs split it.
	for name, mut := range map[string]func(*parcolor.Options){
		"algorithm":  func(o *parcolor.Options) { o.Algorithm = parcolor.JonesPlassmann },
		"seed":       func(o *parcolor.Options) { o.Seed = 99 },
		"seedbits":   func(o *parcolor.Options) { o.SeedBits = 6 },
		"bitwise":    func(o *parcolor.Options) { o.Bitwise = true },
		"degreeshrd": func(o *parcolor.Options) { o.DegreeShard = true },
	} {
		o := base
		mut(&o)
		if KeyForGraph(g, "trivial", o) == k0 {
			t.Errorf("%s: result-affecting option did not change the key", name)
		}
	}
	if KeyForGraph(g, "deltaplus1", base) == k0 {
		t.Error("palette mode did not change the key")
	}
	// Different graph content → different key; generator form never
	// collides with edge form.
	g2 := parcolor.GenerateGraph("mixed", 80, 2)
	if KeyForGraph(g2, "trivial", base) == k0 {
		t.Error("different graph hashed equal")
	}
	if KeyForGenerator("mixed", 80, 1, "trivial", base) == k0 {
		t.Error("generator spec collided with edge-form key")
	}
}
