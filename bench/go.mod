module holdcsim/bench

go 1.22

require holdcsim v0.0.0

replace holdcsim => ../
