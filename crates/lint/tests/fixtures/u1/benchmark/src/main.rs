//! Stand-in for the frozen benchmark: a caller like any other.

fn main() {
    println!("{}", sim::BENCHMARK_SURFACE + sim::sibling::run() + sim::renamed());
}
