module github.com/minoskv/minos/benchmark

go 1.23

require github.com/minoskv/minos v0.0.0

replace github.com/minoskv/minos => ../
