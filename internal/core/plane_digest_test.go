package core

import (
	"fmt"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/setcover"
)

// planeInput builds the instance a registry algorithm of the given kind
// runs on in TestPlaneDigests, the way the service builds its density,
// vertexcover, setcover-f and setcover-greedy specs: a Density graph with
// weights in [1, 100), vertex weights in [1, 10), and random set systems.
func planeInput(kind InputKind, seed uint64) Input {
	r := rng.New(seed)
	switch kind {
	case InputSetCover:
		return Input{Cover: setcover.RandomFrequency(400, 2400, 3, 10, r.Split())}
	case InputVertexCover:
		g := graph.Density(800, 0.3, r.Split())
		g.AssignUniformWeights(r.Split(), 1, 100)
		wr := r.Split()
		w := make([]float64, g.N)
		for i := range w {
			w[i] = wr.UniformWeight(1, 10)
		}
		return Input{Graph: g, Cover: setcover.FromVertexCover(g, w)}
	}
	g := graph.Density(800, 0.3, r.Split())
	g.AssignUniformWeights(r.Split(), 1, 100)
	return Input{Graph: g}
}

// planeDigests pins the SHA-256 of every registry algorithm's full
// RunResult (summary, size, weight, iterations and every Metrics field) at
// two seeds and µ ∈ {0.05, 0.2}. They were taken before the message plane
// learned to read same-shape runs in bulk and to count words at the barrier,
// which must leave every record, round and word where it was.
var planeDigests = map[string]string{
	"bmatching/seed=1/mu=0.05":       "709d02a7c088ed132834a72d282eeb3c07d465b725781e62f8f45aabc9ca778a",
	"bmatching/seed=1/mu=0.2":        "62965e67fac793b6f473161efc5966656023e5a11ae68caa46d59bd6415259cc",
	"bmatching/seed=2/mu=0.05":       "3d92ff64ec64e82afbf10ad05da51a42bf79f34f0d42680525d6b1dac90ddfe4",
	"bmatching/seed=2/mu=0.2":        "e79c6eadd68a5d6bc77d0b8d2a96a1c569723dfa239ba5307dc813074df616ad",
	"clique/seed=1/mu=0.05":          "0f4b3e8279978ab7cdb7040b9f7f3ff0688227a2616b32a85a03a743d04b8721",
	"clique/seed=1/mu=0.2":           "fc9862ba5c0b1472476aaa5ab5904c647a795f5abc9c71ecd5a8a93c829c9e18",
	"clique/seed=2/mu=0.05":          "e5113784827efba3a1763f6b1643349764f864015c2402e49da85d62d31d5223",
	"clique/seed=2/mu=0.2":           "dbd66bc297a184d7e15a388b588375e18a8d2f3771e2d2247dfb274dbd7b3983",
	"ecolour/seed=1/mu=0.05":         "0e0d790c47499ed7ef1794d4a9a0515c61bbc465b2703eccd39298a044b5a874",
	"ecolour/seed=1/mu=0.2":          "c5f31643b14ebc30edaa1c683888799287bf435f794ca567657879993cf37d35",
	"ecolour/seed=2/mu=0.05":         "3b823842075e84fde3411b966c20e17d650c5711a0fe531f75d529f1fd159dfb",
	"ecolour/seed=2/mu=0.2":          "514ef475f6d3e5f43fcc6debae5c7e2a5d60bfa6802bd3982699f347752b7a33",
	"filtering/seed=1/mu=0.05":       "8f4a01c9a9a02efd84eccd8093aad1475f7b40748acb7e6cc6d3ce5952270a23",
	"filtering/seed=1/mu=0.2":        "7d9b128abeb96e0237bddc6370650eaeadbcddaf65e0d64748ff4392d8e5210c",
	"filtering/seed=2/mu=0.05":       "b1dbdc9fcef9606807b181b7e766a2d6924c8bd1f40eee80e455089871778281",
	"filtering/seed=2/mu=0.2":        "adbeed4f2772a11d4bef7696ac564e4d142cc92e59bd306303287c9d42846718",
	"luby/seed=1/mu=0.05":            "002057b09d70e2c5489d2512a81237891d80ea6d4515c1325ace70bdc602be6a",
	"luby/seed=1/mu=0.2":             "5a6441697dfb0e7b4a63019672963152046a2399308a407c180040775355b8fd",
	"luby/seed=2/mu=0.05":            "3e81c5b6ee214b22094df767d15ff4801d18360b68a6cda1afdfb48a3540a2fc",
	"luby/seed=2/mu=0.2":             "d73ddc2a98e48ca60caaea2ea7b2ef0e178e3116e3088704034566f95835e0e8",
	"matching/seed=1/mu=0.05":        "d0f16c9a920cc827ab623f540c2469edd79e485f96c3436fc5d73a92ed2151d7",
	"matching/seed=1/mu=0.2":         "5caf7c75bc2874a2e4413e970210a8f89866c8f6575f171c1722092a9a947486",
	"matching/seed=2/mu=0.05":        "2cd38b55f8f36e5a73b598a591656265fc01e6be4ae569e69deae70796ac856e",
	"matching/seed=2/mu=0.2":         "5554207a6ce1c75dd7d250baccf818a7bfcc905051123002ff5a3b435f977411",
	"mis/seed=1/mu=0.05":             "dac8655a5b076e323bbebeef871c52eb24ffb353a1dbe52201f016f6d8fb81dd",
	"mis/seed=1/mu=0.2":              "b78689d424e2eb1505c9391457a4d3964eadda18beac22528dc894e6879e6b5c",
	"mis/seed=2/mu=0.05":             "8acbffae7e8c0bdd596b9b50f94c23a71cb3d7d02131a34203030575e4bab229",
	"mis/seed=2/mu=0.2":              "886daf1509fe21c6912c9cc7ca435f1bc0dffde60dfca470b8fdb6ac443c5ca4",
	"mis-simple/seed=1/mu=0.05":      "acc8aee24b67fdb849d04bda37b92c10c88343f0ba3ad3f684bfceea773aa675",
	"mis-simple/seed=1/mu=0.2":       "baf0da306be3355f424fb3dc51e6caef0d2ede02787d5ef7f41d382e73417a87",
	"mis-simple/seed=2/mu=0.05":      "dc3466fbd78d7343c532bc413aa4bb22e09573edc3e4b616525c5d0295ca05f6",
	"mis-simple/seed=2/mu=0.2":       "45e9191990ddaec79dbb921d98027b607ce6e1b0aee7b4bef34095fd7ca3bd4d",
	"setcover-f/seed=1/mu=0.05":      "0ddd11ba925cc3ca01dad2358963e74ee82d94527265f42eb90c88423512b1a4",
	"setcover-f/seed=1/mu=0.2":       "b90090acb16ff1d417a3129daa296428d03815782423fef286c1c4081518594c",
	"setcover-f/seed=2/mu=0.05":      "f832c667aeb83c9d0d4da983de4eb768518bb3dbc3b6d5a453d0365147c60b76",
	"setcover-f/seed=2/mu=0.2":       "f3837231580baae05aecbf5f62b6d66075bcd438cd21912108120c4534b50cb5",
	"setcover-greedy/seed=1/mu=0.05": "4f58cc3a9ab7ec79d43dcc04b8133c4f027167f718b29d7e470580862bd480fe",
	"setcover-greedy/seed=1/mu=0.2":  "fe6ef39caa89a81768cf36c748288854f4fdee0d9f305ba765c885b6f6a0856c",
	"setcover-greedy/seed=2/mu=0.05": "2ef5fe1f719d171479ef08990a13feef8c9c998704c11d12a01841fa06e8226a",
	"setcover-greedy/seed=2/mu=0.2":  "79b4c892650a17947a7471739969dc0cc2e8a800f86ff552e915d032346de61d",
	"vcolour/seed=1/mu=0.05":         "83d2fadafc5f55936d14621cda391b786cffb959ddc08bf9d79ee3fd813cf780",
	"vcolour/seed=1/mu=0.2":          "9ed9df7752709fdf2afee72be97a5c6330de7e466407eb9ff7d3ab0799f2050f",
	"vcolour/seed=2/mu=0.05":         "d6aaa324db2fc00f4f2e60963d923a3ab5315d7dbf9984c1747bb252b421264d",
	"vcolour/seed=2/mu=0.2":          "fd4550c61f02037823f7f1634c9eff8982fdfc70c3b7afcb4c79159132b32102",
	"vertexcover/seed=1/mu=0.05":     "409739949b428bd2775e0f31478c1056ee08dc7aeb25030f5fefe27697c7b4a3",
	"vertexcover/seed=1/mu=0.2":      "7502374e1f2f3293cb72a7cb017e5427aab64fb9451dd6ca240881621834f823",
	"vertexcover/seed=2/mu=0.05":     "fbf56290c364aa74c84b43b9796d861604447dda7225ffdc0b76e6144221f163",
	"vertexcover/seed=2/mu=0.2":      "5b258c073bb7ba29dd72cba2e6b31c55144a249afd0bed253eaf602ebcea489d",
}

func TestPlaneDigests(t *testing.T) {
	greedy := Input{Cover: setcover.RandomSized(2000, 200, 12, 8, rng.New(3))}
	for _, a := range Algorithms() {
		for _, seed := range []uint64{1, 2} {
			for _, mu := range []float64{0.05, 0.2} {
				in := planeInput(a.Input, seed)
				if a.Name == "setcover-greedy" {
					in = greedy
				}
				key := fmt.Sprintf("%s/seed=%d/mu=%v", a.Name, seed, mu)
				res, err := a.Run(in, Params{Mu: mu, Seed: seed}, nil)
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				if got := resultDigest(res); got != planeDigests[key] {
					t.Errorf("%s: digest %s, pinned %s", key, got, planeDigests[key])
				}
			}
		}
	}
}
