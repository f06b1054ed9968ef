package service

import (
	"fmt"
	"testing"
)

func props(key string) *DesignProperties {
	return &DesignProperties{Edges: key}
}

func TestDesignCacheLRUEviction(t *testing.T) {
	c := newLRU[*DesignProperties](2)
	c.put("a", props("a"))
	c.put("b", props("b"))
	if _, ok := c.get("a"); !ok { // promote a; b is now LRU
		t.Fatal("a missing")
	}
	c.put("c", props("c")) // evicts b
	if _, ok := c.get("b"); ok {
		t.Fatal("b survived eviction")
	}
	for _, k := range []string{"a", "c"} {
		if got, ok := c.get(k); !ok || got.Edges != k {
			t.Fatalf("%s missing or wrong after eviction", k)
		}
	}
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2", c.len())
	}
}

func TestDesignCacheUpdateExisting(t *testing.T) {
	c := newLRU[*DesignProperties](2)
	c.put("a", props("old"))
	c.put("a", props("new"))
	if got, _ := c.get("a"); got.Edges != "new" {
		t.Fatalf("got %q, want updated value", got.Edges)
	}
	if c.len() != 1 {
		t.Fatalf("len = %d, want 1", c.len())
	}
}

func TestDesignCacheDisabled(t *testing.T) {
	c := newLRU[*DesignProperties](0)
	c.put("a", props("a"))
	if _, ok := c.get("a"); ok {
		t.Fatal("disabled cache stored an entry")
	}
}

func TestDesignCacheConcurrent(t *testing.T) {
	c := newLRU[*DesignProperties](8)
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("k%d", (g*7+i)%16)
				c.put(k, props(k))
				if v, ok := c.get(k); ok && v.Edges != k {
					t.Errorf("key %s holds %s", k, v.Edges)
					return
				}
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	if c.len() > 8 {
		t.Fatalf("cache grew to %d over capacity 8", c.len())
	}
}

func TestDesignKeyCanonicalization(t *testing.T) {
	a := DesignRequest{Points: []int{25, 4, 3}, Loop: "hub"}
	b := DesignRequest{Points: []int{3, 4, 25}, Loop: "hub"}
	if a.Key() != b.Key() {
		t.Fatalf("reordered designs key differently: %q vs %q", a.Key(), b.Key())
	}
	c := DesignRequest{Points: []int{3, 4, 25}, Loop: "leaf"}
	if a.Key() == c.Key() {
		t.Fatal("different loop modes share a key")
	}
	// Key must not mutate the request's point order (generation depends on it).
	if a.Points[0] != 25 {
		t.Fatal("Key reordered the request's points")
	}
}
