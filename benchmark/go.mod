module github.com/acedsm/ace/benchmark

go 1.22

require github.com/acedsm/ace v0.0.0

replace github.com/acedsm/ace => ../
