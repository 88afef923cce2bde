package engine

import (
	"sync"
	"testing"
)

func TestPoolMapCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 4, 7} {
		p := NewPool(workers)
		const n = 23
		var mu sync.Mutex
		seen := make([]int, n)
		p.Map(n, func(_, i int) {
			mu.Lock()
			seen[i]++
			mu.Unlock()
		})
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, c)
			}
		}
	}
}

func TestPoolChunkingIsContiguousAndDeterministic(t *testing.T) {
	p := NewPool(3)
	const n = 10
	var mu sync.Mutex
	owner := make([]int, n)
	p.Map(n, func(w, i int) {
		mu.Lock()
		owner[i] = w
		mu.Unlock()
	})
	// Worker w owns [w·n/W, (w+1)·n/W): a pure function of (n, W).
	for i := 0; i < n; i++ {
		want := -1
		for w := 0; w < 3; w++ {
			if i >= w*n/3 && i < (w+1)*n/3 {
				want = w
			}
		}
		if owner[i] != want {
			t.Fatalf("index %d owned by worker %d, want %d", i, owner[i], want)
		}
	}
}

func TestPoolZeroWorkersDefaultsToGOMAXPROCS(t *testing.T) {
	if p := NewPool(0); p.Workers < 1 {
		t.Fatalf("NewPool(0).Workers = %d", p.Workers)
	}
}
