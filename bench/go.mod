// The benchmark is its own module so that it builds with its own file and
// is not part of the root module's ./... patterns; the vcmt/ prefix keeps
// vcmt/internal/... importable.
module vcmt/bench

go 1.24

require vcmt v0.0.0

replace vcmt => ../
