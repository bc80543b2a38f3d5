module smartrpc/benchmark

go 1.22

require smartrpc v0.0.0

replace smartrpc => ../
