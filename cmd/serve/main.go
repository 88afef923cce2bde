// Command serve hosts the EMSTDP engine as a multi-tenant HTTP/JSON
// service: named model instances are created and deleted at runtime,
// each classifying on frozen weight-version snapshots while fine-tuning
// online, one sample at a time, from a bounded admission queue (429 +
// Retry-After while its gate is closed).
//
// Usage:
//
//	serve -addr localhost:8080
//
//	# create a tenant (empty body = MNIST, FP backend, core defaults)
//	curl -X PUT localhost:8080/v1/tenants/demo \
//	     -d '{"train_samples":200,"test_samples":50,"hidden":[20],"pretrain_epochs":1}'
//
//	# online fine-tuning; "accepted" reports partial admission
//	curl -X POST localhost:8080/v1/demo/train -d '{"x":[...],"y":3}'
//
//	# classify on the current weight version (coalesced under load)
//	curl -X POST localhost:8080/v1/demo/classify -d '{"x":[...]}'
//
//	# observability
//	curl localhost:8080/v1/demo/counters
//	curl localhost:8080/v1/demo/accuracy
//	curl localhost:8080/debug/counters
//
//	# graceful retirement: drains admitted training, joins all goroutines
//	curl -X DELETE localhost:8080/v1/tenants/demo
//
// The input vectors are conv feature vectors of the tenant's
// "input_dim" (returned by the create call); labels are class indices
// in [0, "classes").
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"emstdp/internal/serve"
)

func main() {
	addr := flag.String("addr", "localhost:8080", "listen address")
	flag.Parse()

	srv := serve.New()
	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	log.Printf("serving on http://%s", *addr)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		log.Fatalf("listen: %v", err)
	case s := <-sig:
		log.Printf("%v: shutting down", s)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("shutdown: %v", err)
	}
	srv.Close() // graceful tenant drain: every admitted sample trains
}
