package serve

import "context"

// classifyReq is one handler's submission to the micro-batcher: one or
// more feature vectors that must all be answered from a single weight
// version. resp is buffered (capacity 1) so the dispatcher never
// blocks replying.
type classifyReq struct {
	xs   [][]float64
	resp chan classifyResp
}

// classifyResp carries the predictions for one request's vectors plus
// the weight version that produced every one of them.
type classifyResp struct {
	preds   []int
	version uint64
	err     error
}

// batcher coalesces concurrent classify submissions into micro-batches.
// The dispatcher takes the first waiting request, drains the requests
// already parked on reqs (up to maxBatch vectors) without waiting for
// more, then answers the whole batch with one pool-sharded Predict on
// the tenant's current weight version. A request on an idle tenant is
// served at once; requests that arrive while a batch predicts park and
// leave together in the next one, so batches grow with load. Because a
// prediction is a pure function of (weights, input) and Group.Predict
// is bit-identical across pool widths, coalescing amortises dispatch
// without changing any individual answer — the conformance tests pin
// this.
type batcher struct {
	// reqs is unbuffered: a request the dispatcher has accepted is
	// always answered, even during shutdown.
	reqs     chan classifyReq
	maxBatch int
	quit     chan struct{}
	done     chan struct{}
}

func newBatcher(maxBatch int) *batcher {
	return &batcher{
		reqs:     make(chan classifyReq),
		maxBatch: maxBatch,
		quit:     make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// run is the dispatcher loop, owned by one goroutine per tenant; serve
// answers one batch of size feature vectors.
func (b *batcher) run(serve func(batch []classifyReq, size int)) {
	defer close(b.done)
	for {
		var first classifyReq
		select {
		case <-b.quit:
			return
		case first = <-b.reqs:
		}
		batch := []classifyReq{first}
		size := len(first.xs)
	drain:
		for size < b.maxBatch {
			select {
			case r := <-b.reqs:
				batch = append(batch, r)
				size += len(r.xs)
			default:
				break drain
			}
		}
		serve(batch, size)
	}
}

// submit hands a request to the dispatcher and waits for its batch's
// answer. It returns errClosed when the tenant is shutting down and the
// request was never accepted, and ctx's error once ctx is done — the
// client has gone, so nobody waits for an answer. A request abandoned
// after acceptance is still served; its reply lands unread in the
// buffered resp, so the dispatcher never blocks on it.
func (b *batcher) submit(ctx context.Context, req classifyReq) (classifyResp, error) {
	if err := ctx.Err(); err != nil {
		return classifyResp{}, err
	}
	select {
	case b.reqs <- req:
	case <-b.done:
		return classifyResp{}, errClosed
	case <-ctx.Done():
		return classifyResp{}, ctx.Err()
	}
	select {
	case resp := <-req.resp:
		return resp, nil
	case <-ctx.Done():
		return classifyResp{}, ctx.Err()
	}
}

// close stops the dispatcher and waits for it; every accepted request
// has been answered when close returns.
func (b *batcher) close() {
	close(b.quit)
	<-b.done
}
