package lru

import (
	"slices"
	"sync"
	"testing"
)

// keptKeys lists the kept keys from most to least recently used, and
// checks that their costs sum to Used.
func keptKeys[K comparable, V any](t *testing.T, c *Cache[K, V]) []K {
	t.Helper()
	var keys []K
	sum := 0
	for el := c.order.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry[K, V])
		keys = append(keys, e.key)
		sum += e.cost
	}
	if sum != c.Used() || len(keys) != c.Len() || len(c.items) != len(keys) {
		t.Fatalf("entries sum to %d over %d keys (%d mapped), Used %d, Len %d", sum, len(keys), len(c.items), c.Used(), c.Len())
	}
	return keys
}

// TestLRUEvictsLeastRecentlyUsedUntilCostsFit: a new entry evicts from
// the back, as many entries as its cost needs, and a Get moves an entry
// out of the way.
func TestLRUEvictsLeastRecentlyUsedUntilCostsFit(t *testing.T) {
	c := New[string, int](10)
	for i, k := range []string{"a", "b", "c", "d"} {
		if v, ev := c.Add(k, i, 2); v != i || ev != 0 {
			t.Fatalf("Add(%s) = %d, %d evicted; want %d, 0", k, v, ev, i)
		}
	}
	if c.Len() != 4 || c.Used() != 8 {
		t.Fatalf("Len/Used = %d/%d, want 4/8", c.Len(), c.Used())
	}
	if v, ok := c.Get("a"); !ok || v != 0 {
		t.Fatalf("Get(a) = %d, %v", v, ok)
	}
	// "e" costs 5: 13 > 10 evicts b (11 > 10), then c (9).
	if _, ev := c.Add("e", 4, 5); ev != 2 {
		t.Fatalf("Add(e) evicted %d, want 2", ev)
	}
	if got, want := keptKeys(t, c), []string{"e", "a", "d"}; !slices.Equal(got, want) {
		t.Fatalf("kept %v, want %v", got, want)
	}
	for _, k := range []string{"b", "c"} {
		if _, ok := c.Get(k); ok {
			t.Fatalf("%s survived eviction", k)
		}
	}
	if c.Len() != 3 || c.Used() != 9 {
		t.Fatalf("Len/Used = %d/%d, want 3/9", c.Len(), c.Used())
	}
}

// TestLRUAddKeepsTheFirstValue: adding under a kept key returns the
// kept value, costs nothing more, and makes it the most recently used.
func TestLRUAddKeepsTheFirstValue(t *testing.T) {
	c := New[string, *int](3)
	first, second := new(int), new(int)
	c.Add("x", first, 1)
	c.Add("y", new(int), 1)
	if v, ev := c.Add("x", second, 1); v != first || ev != 0 {
		t.Fatalf("re-Add returned %p (%d evicted), want the kept %p", v, ev, first)
	}
	if c.Len() != 2 || c.Used() != 2 {
		t.Fatalf("Len/Used = %d/%d after re-Add, want 2/2", c.Len(), c.Used())
	}
	if got, want := keptKeys(t, c), []string{"x", "y"}; !slices.Equal(got, want) {
		t.Fatalf("kept %v, want %v", got, want)
	}
	// Two more entries evict y, the least recently used, then x.
	c.Add("z", new(int), 1)
	if _, ev := c.Add("w", new(int), 1); ev != 1 {
		t.Fatalf("Add(w) evicted %d, want 1", ev)
	}
	if got, want := keptKeys(t, c), []string{"w", "z", "x"}; !slices.Equal(got, want) {
		t.Fatalf("kept %v, want %v", got, want)
	}
	if v, ok := c.Get("x"); !ok || v != first {
		t.Fatalf("Get(x) = %p, %v; want the first value %p", v, ok, first)
	}
}

// TestLRUOversizeNeverKept: a value costing more than the whole budget
// comes back but is never kept and evicts nothing.
func TestLRUOversizeNeverKept(t *testing.T) {
	c := New[string, string](4)
	c.Add("small", "s", 4)
	if v, ev := c.Add("big", "b", 5); v != "b" || ev != 0 {
		t.Fatalf("oversize Add = %q, %d evicted", v, ev)
	}
	if _, ok := c.Get("big"); ok {
		t.Fatal("oversize value was kept")
	}
	if got, want := keptKeys(t, c), []string{"small"}; !slices.Equal(got, want) {
		t.Fatalf("kept %v, want %v", got, want)
	}
	// A value costing exactly the budget is kept, alone.
	if _, ev := c.Add("exact", "e", 4); ev != 1 {
		t.Fatalf("Add(exact) evicted %d, want 1", ev)
	}
	if c.Len() != 1 || c.Used() != 4 {
		t.Fatalf("Len/Used = %d/%d, want 1/4", c.Len(), c.Used())
	}
}

// TestLRUManyInsertsKeepTheNewest: after 1,000 distinct inserts of
// varying cost, the kept entries are exactly the newest ones, front to
// back, their costs sum to Used within the budget, and every other
// insert was reported evicted once.
func TestLRUManyInsertsKeepTheNewest(t *testing.T) {
	const inserts, budget = 1000, 500
	c := New[int, int](budget)
	evicted := 0
	for i := 0; i < inserts; i++ {
		_, ev := c.Add(i, i, 1+i%7)
		evicted += ev
	}
	keys := keptKeys(t, c)
	if len(keys) == 0 || len(keys) == inserts || c.Used() > budget {
		t.Fatalf("kept %d of %d inserts at cost %d against %d", len(keys), inserts, c.Used(), budget)
	}
	if evicted != inserts-len(keys) {
		t.Fatalf("%d evictions reported, want %d", evicted, inserts-len(keys))
	}
	for j, k := range keys {
		if want := inserts - 1 - j; k != want {
			t.Fatalf("kept entry %d is %d, want %d", j, k, want)
		}
	}
}

// TestLRUConcurrentGetAdd has goroutines add and get overlapping keys
// at once; under -race it audits the locking, and afterwards the
// bookkeeping must still agree with the entries.
func TestLRUConcurrentGetAdd(t *testing.T) {
	const workers, rounds, keys = 8, 2000, 64
	c := New[int, int](keys / 2)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				k := (g*7 + i) % keys
				if v, ok := c.Get(k); ok && v != k {
					t.Errorf("Get(%d) = %d", k, v)
					return
				}
				if v, _ := c.Add(k, k, 1); v != k {
					t.Errorf("Add(%d) returned %d", k, v)
					return
				}
				if i%100 == 0 && c.Used() > keys/2 {
					t.Errorf("Used %d over the budget %d", c.Used(), keys/2)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if got := len(keptKeys(t, c)); got != keys/2 {
		t.Fatalf("kept %d entries, want %d", got, keys/2)
	}
}
