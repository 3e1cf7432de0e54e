# The installed console script: every stage once through the `owcfog` entry
# point, then the exit code of each input it must refuse.  Needs `owcfog`,
# `python3` (the interpreter owcfog is installed in), `taskset`, `timeout`
# and `cmp` on PATH and RUNNER_TEMP naming a scratch directory; run it as
# `bash -eo pipefail ci/console-script.sh`, which is how the workflow and
# tests/test_cli.py run it.
owcfog validate
# the loader and the fog stage read the room from owcfog.room: no numpy
python3 -c 'import sys, owcfog.placement, owcfog.config; owcfog.config.load_config(); sys.exit("numpy" in sys.modules)'
# the rates alone size the mobile layer; overrides complete a config file
owcfog validate --override 'topology.mobile_rates_mbps=[100,200,300]'
# the sweep is validated per axis entry, not by building every cell's tasks
timeout 30 owcfog validate --override tasks=2000000
printf '{"scenario":{"mode":"fixed"}}' > "$RUNNER_TEMP/fixed.json"
owcfog validate --config "$RUNNER_TEMP/fixed.json" --override 'scenario.positions_m=[[1,1]]'
owcfog place --out "$RUNNER_TEMP/place" --override tasks=1
owcfog sweep --out "$RUNNER_TEMP/sweep" --override 'drr=[0.002,0.2]' --override 'workload=[100,1000]'
# a sweep flags a cell that no node can hold instead of refusing the run
owcfog sweep --out "$RUNNER_TEMP/mixed" --fig 8 --override drr=0.2 --override 'workload=[400.0,1e300]'
grep -q 'infeasible,per_task_fit' "$RUNNER_TEMP/mixed/placement.csv"
owcfog channel --out "$RUNNER_TEMP/channel" --override room.grid_nx=2 --override room.grid_ny=2
# the measuring thread shares one CPU with the tracer, and which thread
# takes a transform varies from run to run: same bytes
taskset -c 0 owcfog channel --out "$RUNNER_TEMP/channel-1cpu" --override room.grid_nx=2 --override room.grid_ny=2
for table in channel bandwidth_cdf; do
  cmp "$RUNNER_TEMP/channel/$table.csv" "$RUNNER_TEMP/channel-1cpu/$table.csv"
done
owcfog chain --out "$RUNNER_TEMP/chain" --override scenario.name=s1-analogue
taskset -c 0 owcfog chain --out "$RUNNER_TEMP/chain-1cpu" --override scenario.name=s1-analogue
for table in channel allocation placement; do
  cmp "$RUNNER_TEMP/chain/$table.csv" "$RUNNER_TEMP/chain-1cpu/$table.csv"
done
# a directory is no config file: one config line, not a traceback
code=0; owcfog validate --config "$RUNNER_TEMP" 2> "$RUNNER_TEMP/dir.err" || code=$?; test $code -eq 1
test "$(wc -l < "$RUNNER_TEMP/dir.err")" -eq 1
code=0; owcfog validate --override room.length_m=Infinity || code=$?; test $code -eq 1
code=0; owcfog validate --override 'topology.mobile_wavelengths=[]' || code=$?; test $code -eq 1
code=0; owcfog channel --out "$RUNNER_TEMP/uv" --override 'topology.mobile_wavelengths=["uv"]' || code=$?; test $code -eq 1
code=0; owcfog allocate --out "$RUNNER_TEMP/pos" --override 'scenario.positions_m=[[1,1]]' || code=$?; test $code -eq 1
# seed 0 draws 3 users, so 2 rates cannot replace their solved rates
code=0; owcfog chain --out "$RUNNER_TEMP/rates" --seed 0 --override 'topology.mobile_rates_mbps=[100,200]' || code=$?; test $code -eq 1
code=0; owcfog allocate --out "$RUNNER_TEMP/rates-allocate" --seed 0 --override 'topology.mobile_rates_mbps=[100,200]' || code=$?; test $code -eq 1
# about 3.2e7 users: the count alone is refused, before any position is drawn
code=0; owcfog chain --out "$RUNNER_TEMP/crowd" --override scenario.intensity_per_m2=1e6 || code=$?; test $code -eq 2
# the placement search keeps its open depths on a list, so 1,200 tasks solve
owcfog place --out "$RUNNER_TEMP/deep" --override tasks=1200 --override workload=100 --override drr=0.002
grep -q ',optimal,' "$RUNNER_TEMP/deep/placement.csv"
# 1e-15 s bins would give one trace about 94 million bins: refused before any is allocated
code=0; timeout 30 owcfog channel --out "$RUNNER_TEMP/bins" --override room.time_bin_s=1e-15 --override room.grid_nx=1 --override room.grid_ny=1 2> "$RUNNER_TEMP/bins.err" || code=$?; test $code -eq 1
test "$(wc -l < "$RUNNER_TEMP/bins.err")" -eq 1
# numpy cannot draw a Poisson count with a mean past about 9.2e18
code=0; owcfog validate --override scenario.intensity_per_m2=1e300 || code=$?; test $code -eq 1
code=0; owcfog place --out "$RUNNER_TEMP/huge" --override 'workload=[1e300]' 2> "$RUNNER_TEMP/huge.err" || code=$?; test $code -eq 2
test "$(wc -l < "$RUNNER_TEMP/huge.err")" -eq 1
# an unknown surface in a reflectivity map is refused, not ignored
code=0; owcfog validate --override 'room.reflectivity={"red":{"walls":0.8,"ceiling":0.8,"floor":0.3,"mirror":0.99},"yellow":{"walls":0.8,"ceiling":0.8,"floor":0.3},"green":{"walls":0.8,"ceiling":0.8,"floor":0.3},"blue":{"walls":0.8,"ceiling":0.8,"floor":0.3}}' 2> "$RUNNER_TEMP/mirror.err" || code=$?; test $code -eq 1
test "$(wc -l < "$RUNNER_TEMP/mirror.err")" -eq 1
set +e; owcfog validate --override room.grid_nx=true; test $? -eq 1
