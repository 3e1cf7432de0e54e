# The installed console script: every stage once through the `owcfog` entry
# point, then the exit code of each input it must refuse.  Needs `owcfog`,
# `taskset`, `timeout` and `cmp` on PATH and RUNNER_TEMP naming a scratch
# directory; run it as `bash -eo pipefail ci/console-script.sh`, which is how
# the workflow and tests/test_cli.py run it.
owcfog validate
# the rates alone size the mobile layer; overrides complete a config file
owcfog validate --override 'topology.mobile_rates_mbps=[100,200,300]'
# the sweep is validated per axis entry, not by building every cell's tasks
timeout 30 owcfog validate --override tasks=2000000
printf '{"scenario":{"mode":"fixed"}}' > "$RUNNER_TEMP/fixed.json"
owcfog validate --config "$RUNNER_TEMP/fixed.json" --override 'scenario.positions_m=[[1,1]]'
owcfog place --out "$RUNNER_TEMP/place" --override tasks=1
owcfog sweep --out "$RUNNER_TEMP/sweep" --override 'drr=[0.002,0.2]' --override 'workload=[100,1000]'
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
code=0; owcfog validate --override room.length_m=Infinity || code=$?; test $code -eq 1
code=0; owcfog validate --override 'topology.mobile_wavelengths=[]' || code=$?; test $code -eq 1
code=0; owcfog channel --out "$RUNNER_TEMP/uv" --override 'topology.mobile_wavelengths=["uv"]' || code=$?; test $code -eq 1
code=0; owcfog allocate --out "$RUNNER_TEMP/pos" --override 'scenario.positions_m=[[1,1]]' || code=$?; test $code -eq 1
# seed 0 draws 3 users, so 2 rates cannot replace their solved rates
code=0; owcfog chain --out "$RUNNER_TEMP/rates" --seed 0 --override 'topology.mobile_rates_mbps=[100,200]' || code=$?; test $code -eq 1
code=0; owcfog allocate --out "$RUNNER_TEMP/rates-allocate" --seed 0 --override 'topology.mobile_rates_mbps=[100,200]' || code=$?; test $code -eq 1
# about 3.2e7 users: the count alone is refused, before any position is drawn
code=0; owcfog chain --out "$RUNNER_TEMP/crowd" --override scenario.intensity_per_m2=1e6 || code=$?; test $code -eq 2
# the placement search recurses once per task: too deep for 1,200 tasks
code=0; owcfog place --out "$RUNNER_TEMP/deep" --override tasks=1200 --override workload=100 --override drr=0.002 2> "$RUNNER_TEMP/deep.err" || code=$?; test $code -eq 1
test "$(wc -l < "$RUNNER_TEMP/deep.err")" -eq 1
# numpy cannot draw a Poisson count with a mean past about 9.2e18
code=0; owcfog validate --override scenario.intensity_per_m2=1e300 || code=$?; test $code -eq 1
code=0; owcfog place --out "$RUNNER_TEMP/huge" --override 'workload=[1e300]' 2> "$RUNNER_TEMP/huge.err" || code=$?; test $code -eq 2
test "$(wc -l < "$RUNNER_TEMP/huge.err")" -eq 1
set +e; owcfog validate --override room.grid_nx=true; test $? -eq 1
