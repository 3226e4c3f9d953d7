//@ path: crates/storm/src/threads.rs
// Known-bad: real threads outside bench::sweep.
pub fn bad() {
    let h = std::thread::spawn(|| 1 + 1); //~ D03
    let _ = h.join();
    std::thread::scope(|_s| {}); //~ D03
    let b = std::thread::Builder::new() //~ D03
        .name("rank0".into())
        .stack_size(1 << 20);
    let _ = b.spawn(|| ()).map(|h| h.join());
}
