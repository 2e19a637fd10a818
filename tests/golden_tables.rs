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
Area                 mm2      0.0005
Chip Width            um          16
Density                %          66
WL                    mm        2.49
# MIVs                           131
Total Power           mW        0.68
WNS                   ns      -0.001
TNS                   ns       -0.00
Effective Delay       ns       0.391
PDP                   pJ        0.27
Die Cost         1e-6 C'       0.009
PPC                       433252.295
";

const GOLDEN_TABLE7: &str = "\
### vs 2D 9-Track
Metric             aes
----------------------
Si Area %        -56.7
Density %         -5.4
WL %             -29.3
Total Power %    -30.9
Eff. Delay %     -13.8
PDP %            -40.4
Die Cost %       -50.7
Cost per cm2 %   13.63
PPC %            240.5
Width (um)          34
WNS (ns)        -0.064
TNS (ns)         -0.45

### vs 2D 12-Track
Metric            aes
---------------------
Si Area %         0.8
Density %        -5.4
WL %             -8.3
Total Power %   -15.5
Eff. Delay %      7.7
PDP %            -8.9
Die Cost %       14.6
Cost per cm2 %  13.67
PPC %            -4.2
Width (um)         22
WNS (ns)        0.027
TNS (ns)         0.00

### vs M3D 9-Track
Metric             aes
----------------------
Si Area %        -31.3
Density %         -5.4
WL %              37.2
Total Power %     24.2
Eff. Delay %     -22.6
PDP %             -3.8
Die Cost %       -31.3
Cost per cm2 %   -0.01
PPC %             51.4
Width (um)          19
WNS (ns)        -0.115
TNS (ns)         -0.53

### vs M3D 12-Track
Metric            aes
---------------------
Si Area %         0.8
Density %        -5.4
WL %             18.6
Total Power %   -15.1
Eff. Delay %     10.9
PDP %            -5.8
Die Cost %        0.8
Cost per cm2 %   0.00
PPC %             5.3
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
\"footprint_mm2\":0.0002541089739130437,\
\"si_area_mm2\":0.0005082179478260874,\
\"chip_width_um\":15.94079589961065,\
\"density_pct\":66.18617021276594,\
\"wirelength_mm\":2.486672027020702,\
\"mivs\":131,\
\"switching_mw\":0.1627873068003494,\
\"internal_mw\":0.09763847563643692,\
\"leakage_mw\":0.040628242967614074,\
\"clock_mw\":0.3773550176799867,\
\"total_power_mw\":0.6784090430843871,\
\"wns_ns\":-0.0013602527248954277,\
\"tns_ns\":-0.0013602527248954277,\
\"effective_delay_ns\":0.3911998366988678,\
\"pdp_pj\":0.2653935068696474,\
\"die_cost_uc\":0.00869698728199887,\
\"cost_per_cm2_uc\":1711.2711818227613,\
\"ppc\":433252.29491241736},\
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
\"si_area\":-56.65446680813413,\
\"density\":-5.448328267477242,\
\"wirelength\":-29.266931589006546,\
\"total_power\":-30.851436561980584,\
\"effective_delay\":-13.755747384580339,\
\"pdp\":-40.36333826858082,\
\"die_cost\":-50.74757037625488,\
\"cost_per_cm2\":13.627462847746735,\
\"ppc\":240.45445055960815,\
\"width_um\":34.2415033882234,\
\"wns_ns\":-0.06375567001159577,\
\"tns_ns\":-0.4502058885586554},\
{\"config\":\"2d12t\",\
\"si_area\":0.8426568474720451,\
\"density\":-5.448328267477223,\
\"wirelength\":-8.327232136291357,\
\"total_power\":-15.480459867014162,\
\"effective_delay\":7.738938109688378,\
\"pdp\":-8.939544965529162,\
\"die_cost\":14.628341257211257,\
\"cost_per_cm2\":13.670489097278079,\
\"ppc\":-4.197205818671704,\
\"width_um\":22.449302884499563,\
\"wns_ns\":0.02673981376778234,\
\"tns_ns\":0},\
{\"config\":\"3d9t\",\
\"si_area\":-31.31002220656911,\
\"density\":-5.448328267477223,\
\"wirelength\":37.20436113630607,\
\"total_power\":24.18357703962005,\
\"effective_delay\":-22.567566174944346,\
\"pdp\":-3.841633887209194,\
\"die_cost\":-31.31533726712484,\
\"cost_per_cm2\":-0.007737752619030517,\
\"ppc\":51.40951022305684,\
\"width_um\":19.233721057410754,\
\"wns_ns\":-0.1153748557305988,\
\"tns_ns\":-0.528233015326099},\
{\"config\":\"3d12t\",\
\"si_area\":0.8426568474720234,\
\"density\":-5.448328267477204,\
\"wirelength\":18.554924853737827,\
\"total_power\":-15.072416165069521,\
\"effective_delay\":10.884847528714998,\
\"pdp\":-5.828178154815743,\
\"die_cost\":0.8428059604194087,\
\"cost_per_cm2\":0.00014786693652271037,\
\"ppc\":5.301390532150023,\
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
