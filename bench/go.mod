module wspeer/bench

go 1.22

require wspeer v0.0.0

replace wspeer => ../
