type 'a t = 'a option Atomic.t Domain.DLS.key

let create () = Domain.DLS.new_key (fun () -> Atomic.make None)
let take t = Atomic.exchange (Domain.DLS.get t) None
let put t x = Atomic.set (Domain.DLS.get t) (Some x)
