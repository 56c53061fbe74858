// fuzzyload is a module of its own so the benchmark carries its own build
// file and the root module's `go build ./... && go test ./...` never
// compiles it. The path keeps it under the root module's import prefix, so
// it may import fuzzyknn/internal/... like any other command here.
module fuzzyknn/cmd/fuzzyload

go 1.23

require fuzzyknn v0.0.0

replace fuzzyknn => ../..
