GO ?= go
KRONVET := bin/kronvet

.PHONY: all build test test-tools race fmt vet kronvet

all: fmt vet build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The analyzer suite lives in its own module so the library stays
# dependency-free; its tests exercise each analyzer against flagged and
# clean fixtures under tools/kronvet/*/testdata.
test-tools:
	cd tools && $(GO) test ./...

race:
	$(GO) test -race ./...

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; fi

$(KRONVET): $(wildcard tools/kronvet/*.go tools/kronvet/*/*.go tools/cmd/kronvet/*.go tools/kronvet/internal/vettest/*.go)
	@mkdir -p bin
	cd tools && $(GO) build -o ../$(KRONVET) ./cmd/kronvet

kronvet: $(KRONVET)

# vet runs the standard analyzers, then the repo's own kronvet suite
# (sinkretain, atomicmix, ctxstream) over the whole tree via
# the vet driver. See DESIGN.md "Enforced invariants".
vet: $(KRONVET)
	$(GO) vet ./...
	$(GO) vet -vettool=$(KRONVET) ./...
