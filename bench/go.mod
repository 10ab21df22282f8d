module adaptdb/bench

go 1.22

require adaptdb v0.0.0

replace adaptdb => ../
