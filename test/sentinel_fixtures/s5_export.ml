let own_only x = x + 1
let used x = own_only x * 2
let dead n = n - 1

module Nested = struct
  let nested_dead () = ()
end
