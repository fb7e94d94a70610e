package runner

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapOrdersResults(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 3, 8, 64} {
		const n = 100
		res, err := Map(Pool{Workers: workers}, n, func(i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != n {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(res), n)
		}
		for i, v := range res {
			if v != i*i {
				t.Fatalf("workers=%d: res[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapRunsEveryTaskExactlyOnce(t *testing.T) {
	const n = 1000
	var counts [n]atomic.Int32
	_, err := Map(Pool{Workers: 8}, n, func(i int) (struct{}, error) {
		counts[i].Add(1)
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range counts {
		if c := counts[i].Load(); c != 1 {
			t.Fatalf("task %d ran %d times", i, c)
		}
	}
}

func TestMapBalancesUnevenWork(t *testing.T) {
	// Front-load all the cost onto the first quarter of the indexes:
	// with static partitioning one worker would own every heavy task
	// and run them serially. With a shared cursor, at least two
	// goroutines must observe heavy tasks concurrently at some point —
	// detect via a high-water mark of concurrent heavy tasks.
	const n = 64
	var inFlight, highWater atomic.Int32
	var mu sync.Mutex
	block := make(chan struct{})
	first := true
	_, err := Map(Pool{Workers: 4}, n, func(i int) (struct{}, error) {
		if i >= n/4 {
			return struct{}{}, nil // the cheap 3/4
		}
		cur := inFlight.Add(1)
		for {
			hw := highWater.Load()
			if cur <= hw || highWater.CompareAndSwap(hw, cur) {
				break
			}
		}
		mu.Lock()
		if first {
			first = false
			mu.Unlock()
			select {
			case <-block: // park the first heavy task until another arrives
			case <-time.After(5 * time.Second):
			}
		} else {
			mu.Unlock()
			select {
			case block <- struct{}{}:
			default:
			}
		}
		inFlight.Add(-1)
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if highWater.Load() < 2 {
		t.Errorf("heavy tasks never ran concurrently; balancing failed (high water %d)", highWater.Load())
	}
}

func TestMapSerialFastPathStopsAtError(t *testing.T) {
	boom := errors.New("boom")
	ran := 0
	_, err := Map(Pool{Workers: 1}, 10, func(i int) (int, error) {
		ran++
		if i == 3 {
			return 0, boom
		}
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if ran != 4 {
		t.Errorf("ran %d tasks serially after error, want 4", ran)
	}
}

func TestMapParallelReturnsLowestIndexedError(t *testing.T) {
	// Every task fails; indexes are claimed in ascending order, so
	// index 0 always runs and its error must win.
	_, err := Map(Pool{Workers: 4}, 32, func(i int) (int, error) {
		return 0, fmt.Errorf("task %d failed", i)
	})
	if err == nil || err.Error() != "task 0 failed" {
		t.Fatalf("err = %v, want task 0's error", err)
	}
}

func TestMapEmpty(t *testing.T) {
	res, err := Map(Pool{}, 0, func(i int) (int, error) { return 0, nil })
	if err != nil || len(res) != 0 {
		t.Fatalf("res = %v, err = %v", res, err)
	}
}
