module cloudmonatt/benchmark

go 1.22

require cloudmonatt v0.0.0

replace cloudmonatt => ../
