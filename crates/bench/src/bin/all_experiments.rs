//! Runs the full experiment suite (every table and figure in order).

use insane_bench::BenchError;

fn main() {
    insane_bench::exit_on_error("experiment suite", suite());
}

fn suite() -> Result<(), BenchError> {
    use insane_bench::experiments as e;
    e::table1();
    e::table2();
    e::table3()?;
    e::fig5()?;
    e::fig6()?;
    e::fig7()?;
    e::fig8a()?;
    e::fig8b()?;
    e::fig9a()?;
    e::fig9b()?;
    e::table4();
    e::fig11()?;
    e::extra_xdp_rdma()?;
    e::ablations()
}
