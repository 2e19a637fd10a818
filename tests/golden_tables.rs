//! Golden snapshot tests for the paper-table renderers (Tables VI / VII)
//! and for the served comparison report.
//!
//! A fixed-seed AES comparison is rendered through `m3d-report` and
//! compared against a checked-in snapshot; the same comparison, run
//! through `FlowSession::execute`, must render to checked-in wire bytes
//! (every PPAC field at full precision). The flow is deterministic by
//! construction (see `tests/determinism.rs`), so any diff here means a
//! behavioural change in the flow or the formatters — update the snapshot
//! deliberately (regenerate with
//! `cargo test --test golden_tables -- --ignored --nocapture`), never to
//! silence an unexplained change.

use hetero3d::cost::CostModel;
use hetero3d::flow::{
    try_compare_configs, ComparisonSummary, FlowCommand, FlowOptions, FlowSession,
};
use hetero3d::json::ToJson;
use hetero3d::netgen::Benchmark;
use hetero3d::netlist::Netlist;
use hetero3d::report::{format_comparison, format_table7};

fn design() -> (Netlist, FlowOptions) {
    let netlist = Benchmark::Aes.generate(0.012, 41);
    let mut options = FlowOptions::default();
    options.placer_mut().iterations = 6;
    (netlist, options)
}

fn comparison() -> ComparisonSummary {
    let (netlist, options) = design();
    try_compare_configs(&netlist, &options, &CostModel::default())
        .expect("comparison succeeds on a valid netlist")
        .summary
}

/// The served five-way report, rendered to its wire bytes.
fn served_compare_report() -> String {
    let (netlist, options) = design();
    FlowSession::builder(&netlist)
        .options(options)
        .build()
        .expect("a valid netlist builds a session")
        .execute(&FlowCommand::CompareConfigs)
        .expect("comparison succeeds on a valid netlist")
        .to_json()
        .render()
}

const GOLDEN_TABLE6: &str = "\
Metric             Units         aes
------------------------------------
Frequency            GHz       2.565
Area                 mm2      0.0006
Chip Width            um          17
Density                %          65
WL                    mm        2.64
# MIVs                           129
Total Power           mW        0.73
WNS                   ns      -0.003
TNS                   ns       -0.01
Effective Delay       ns       0.393
PDP                   pJ        0.29
Die Cost         1e-6 C'       0.010
PPC                       368874.785
";

const GOLDEN_TABLE7: &str = "\
### vs 2D 9-Track
Metric             aes
----------------------
Si Area %        -52.6
Density %         -7.5
WL %             -25.0
Total Power %    -26.0
Eff. Delay %     -13.4
PDP %            -35.9
Die Cost %       -46.2
Cost per cm2 %   13.63
PPC %            189.9
Width (um)          34
WNS (ns)        -0.064
TNS (ns)         -0.45

### vs 2D 12-Track
Metric            aes
---------------------
Si Area %        10.2
Density %        -7.5
WL %             -2.8
Total Power %    -9.5
Eff. Delay %      8.1
PDP %            -2.1
Die Cost %       25.3
Cost per cm2 %  13.67
PPC %           -18.4
Width (um)         22
WNS (ns)        0.027
TNS (ns)         0.00

### vs M3D 9-Track
Metric             aes
----------------------
Si Area %        -24.9
Density %         -7.5
WL %              45.4
Total Power %     33.0
Eff. Delay %     -22.3
PDP %              3.4
Die Cost %       -24.9
Cost per cm2 %   -0.01
PPC %             28.9
Width (um)          19
WNS (ns)        -0.115
TNS (ns)         -0.53

### vs M3D 12-Track
Metric            aes
---------------------
Si Area %        10.2
Density %        -7.5
WL %             25.7
Total Power %    -9.1
Eff. Delay %     11.3
PDP %             1.2
Die Cost %       10.2
Cost per cm2 %   0.00
PPC %           -10.3
Width (um)         16
WNS (ns)        0.037
TNS (ns)         0.00
";

/// `FlowReport::Compare` wire bytes, every field at full precision.
const GOLDEN_COMPARE_REPORT: &str = "\
{\"kind\":\"compare\",\
\"comparison\":{\"design\":\"aes\",\
\"target_ghz\":2.5651576728205336,\
\"hetero\":{\"config\":\"hetero3d\",\
\"frequency_ghz\":2.5651576728205336,\
\"footprint_mm2\":0.00027766236521739157,\
\"si_area_mm2\":0.0005553247304347831,\
\"chip_width_um\":16.663203930138753,\
\"density_pct\":64.7664835164835,\
\"wirelength_mm\":2.635679519718877,\
\"mivs\":129,\
\"switching_mw\":0.17988311960322123,\
\"internal_mw\":0.10997893627009328,\
\"leakage_mw\":0.04666881019128495,\
\"clock_mw\":0.38992694311397574,\
\"total_power_mw\":0.7264578091785752,\
\"wns_ns\":-0.0028394672384839392,\
\"tns_ns\":-0.0056789344769678785,\
\"effective_delay_ns\":0.39267905121245633,\
\"pdp_pj\":0.28526476325412253,\
\"die_cost_uc\":0.009503266343507823,\
\"cost_per_cm2_uc\":1711.2989612523438,\
\"ppc\":368874.78482116264},\
\"homogeneous\":[{\"config\":\"2d9t\",\
\"frequency_ghz\":2.5651576728205336,\
\"footprint_mm2\":0.0011724805542857146,\
\"si_area_mm2\":0.0011724805542857146,\
\"chip_width_um\":34.2415033882234,\
\"density_pct\":70.00000000000001,\
\"wirelength_mm\":3.5155721120027352,\
\"mivs\":0,\
\"switching_mw\":0.30633445849457414,\
\"internal_mw\":0.23156007871509918,\
\"leakage_mw\":0.007714397311701048,\
\"clock_mw\":0.4354802007467384,\
\"total_power_mw\":0.9810891352681128,\
\"wns_ns\":-0.06375567001159577,\
\"tns_ns\":-0.4502058885586554,\
\"effective_delay_ns\":0.45359525398556816,\
\"pdp_pj\":0.44501737549442105,\
\"die_cost_uc\":0.017657986313442616,\
\"cost_per_cm2_uc\":1506.036603242432,\
\"ppc\":127257.05133249881},\
{\"config\":\"2d12t\",\
\"frequency_ghz\":2.5651576728205336,\
\"footprint_mm2\":0.0005039712000000004,\
\"si_area_mm2\":0.0005039712000000004,\
\"chip_width_um\":22.449302884499563,\
\"density_pct\":70,\
\"wirelength_mm\":2.712552576919764,\
\"mivs\":0,\
\"switching_mw\":0.183047189219396,\
\"internal_mw\":0.1232022144239165,\
\"leakage_mw\":0.05392995513208804,\
\"clock_mw\":0.4424859681028053,\
\"total_power_mw\":0.8026653268782058,\
\"wns_ns\":0.02673981376778234,\
\"tns_ns\":0,\
\"effective_delay_ns\":0.36309977020619005,\
\"pdp_pj\":0.29144759574195295,\
\"die_cost_uc\":0.007587117798803307,\
\"cost_per_cm2_uc\":1505.4665422951355,\
\"ppc\":452233.4641851783},\
{\"config\":\"3d9t\",\
\"frequency_ghz\":2.5651576728205336,\
\"footprint_mm2\":0.0003699360257142858,\
\"si_area_mm2\":0.0007398720514285716,\
\"chip_width_um\":19.233721057410754,\
\"density_pct\":70,\
\"wirelength_mm\":1.8123855586123174,\
\"mivs\":140,\
\"switching_mw\":0.1698670697099473,\
\"internal_mw\":0.12957060724471722,\
\"leakage_mw\":0.004396604175791836,\
\"clock_mw\":0.24246101753689048,\
\"total_power_mw\":0.5462952986673468,\
\"wns_ns\":-0.1153748557305988,\
\"tns_ns\":-0.528233015326099,\
\"effective_delay_ns\":0.5052144397045712,\
\"pdp_pj\":0.275996273229465,\
\"die_cost_uc\":0.01266219696793554,\
\"cost_per_cm2_uc\":1711.4036060001067,\
\"ppc\":286146.0249585043},\
{\"config\":\"3d12t\",\
\"frequency_ghz\":2.5651576728205336,\
\"footprint_mm2\":0.00025198560000000024,\
\"si_area_mm2\":0.0005039712000000005,\
\"chip_width_um\":15.874054302540364,\
\"density_pct\":69.99999999999999,\
\"wirelength_mm\":2.0974852205326178,\
\"mivs\":138,\
\"switching_mw\":0.17042630801924166,\
\"internal_mw\":0.1232022144239165,\
\"leakage_mw\":0.05392995513208804,\
\"clock_mw\":0.45125035749414305,\
\"total_power_mw\":0.7988088350693893,\
\"wns_ns\":0.037041302317353975,\
\"tns_ns\":0,\
\"effective_delay_ns\":0.3527982816566184,\
\"pdp_pj\":0.28181838438460566,\
\"die_cost_uc\":0.008624301157796442,\
\"cost_per_cm2_uc\":1711.2686514222307,\
\"ppc\":411440.24093408266}],\
\"deltas\":[{\"config\":\"2d9t\",\
\"si_area\":-52.63676413182888,\
\"density\":-7.4764521193092985,\
\"wirelength\":-25.028432478450995,\
\"total_power\":-25.953944135764157,\
\"effective_delay\":-13.42963848009088,\
\"pdp\":-35.89806174709717,\
\"die_cost\":-46.18148312713774,\
\"cost_per_cm2\":13.629307386552943,\
\"ppc\":189.86589030525468,\
\"width_um\":34.2415033882234,\
\"wns_ns\":-0.06375567001159577,\
\"tns_ns\":-0.4502058885586554},\
{\"config\":\"2d12t\",\
\"si_area\":10.1897748194307,\
\"density\":-7.476452119309281,\
\"wirelength\":-2.8339748270678764,\
\"total_power\":-9.49430791984293,\
\"effective_delay\":8.14632325144942,\
\"pdp\":-2.1214216820318805,\
\"die_cost\":25.25528923521846,\
\"cost_per_cm2\":13.672334334538563,\
\"ppc\":-18.43266497631019,\
\"width_um\":22.449302884499563,\
\"wns_ns\":0.02673981376778234,\
\"tns_ns\":0},\
{\"config\":\"3d9t\",\
\"si_area\":-24.943139916889397,\
\"density\":-7.476452119309281,\
\"wirelength\":45.42598329557028,\
\"total_power\":32.978960454304385,\
\"effective_delay\":-22.274776737957254,\
\"pdp\":3.358193904651617,\
\"die_cost\":-24.94772931132782,\
\"cost_per_cm2\":-0.006114556928361288,\
\"ppc\":28.911378333721498,\
\"width_um\":19.233721057410754,\
\"wns_ns\":-0.1153748557305988,\
\"tns_ns\":-0.528233015326099},\
{\"config\":\"3d12t\",\
\"si_area\":10.189774819430674,\
\"density\":-7.476452119309261,\
\"wirelength\":25.659027006139983,\
\"total_power\":-9.057364254681694,\
\"effective_delay\":11.304128061103826,\
\"pdp\":1.222907752112262,\
\"die_cost\":10.191726490404257,\
\"cost_per_cm2\":0.0017711906361337635,\
\"ppc\":-10.345477150286687,\
\"width_um\":15.874054302540364,\
\"wns_ns\":0.037041302317353975,\
\"tns_ns\":0}]}}";

fn assert_snapshot(actual: &str, golden: &str, table: &str) {
    let a = actual.trim_end();
    let g = golden.trim_end();
    if a != g {
        for (i, (al, gl)) in a.lines().zip(g.lines()).enumerate() {
            assert_eq!(al, gl, "{table}: first divergence at line {}", i + 1);
        }
        assert_eq!(
            a.lines().count(),
            g.lines().count(),
            "{table}: line count changed"
        );
    }
}

#[test]
fn table6_metric_rows_match_golden() {
    let cmp = comparison();
    assert_snapshot(&format_comparison(&[&cmp]), GOLDEN_TABLE6, "Table VI");
}

#[test]
fn table7_delta_rows_match_golden() {
    let cmp = comparison();
    assert_snapshot(&format_table7(&[&cmp]), GOLDEN_TABLE7, "Table VII");
}

#[test]
fn served_compare_report_matches_golden() {
    assert_eq!(served_compare_report(), GOLDEN_COMPARE_REPORT);
}

/// Regenerates the snapshots above:
/// `cargo test --test golden_tables -- --ignored --nocapture`
#[test]
#[ignore]
fn print_golden() {
    let cmp = comparison();
    println!("===TABLE6===");
    println!("{}", format_comparison(&[&cmp]));
    println!("===TABLE7===");
    println!("{}", format_table7(&[&cmp]));
}

/// Regenerates [`GOLDEN_COMPARE_REPORT`] as a Rust string literal, one
/// JSON member per source line:
/// `cargo test --test golden_tables -- --ignored --nocapture`
#[test]
#[ignore]
fn print_golden_compare_report() {
    let json = served_compare_report();
    println!("const GOLDEN_COMPARE_REPORT: &str = \"\\");
    println!("{}\";", json.replace('"', "\\\"").replace(',', ",\\\n"));
}
