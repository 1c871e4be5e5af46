// The benchmark is a module of its own so that the repository's
// `go build ./... && go test ./...` neither builds nor runs it; the
// module path keeps the `repro/` prefix, which is what lets it import
// the repository's internal packages.
module repro/benchmark

go 1.22

require repro v0.0.0

replace repro => ../
