package seq

// TestPinnedResults holds every full-output pin of the package in one table.
// A row's pin is the SHA-256 of its colouring's %v text, one colour per
// edge, so any edge whose colour drifts moves it.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// pins is the table's pin column, keyed by row key.
var pins = map[string]string{
	"misragries/density-0(n=30,c=0.15)":     "2c431c0ebabcb64a0373c1e5546b1b5098aad7056bca49769abbb740a04004de",
	"misragries/density-1(n=70,c=0.25)":     "b779d36dc5d06013afc441213966d4d39535feb9631851d7db6f789f01e0b908",
	"misragries/density-10(n=190,c=0.15)":   "dd8e62a099701eb217730bf4975e467213cb54f382ee52e007a6b0bbc8aadfa2",
	"misragries/density-11(n=230,c=0.25)":   "ae06998b61cadb9f02ea47ddf38313f89c7e4c9b38c98e846b306d6ad14874a7",
	"misragries/density-12(n=30,c=0.35)":    "ee608959825a85fd0d66eaf3708e519c663f0034faf73826b1110aee8c107c21",
	"misragries/density-13(n=70,c=0.45)":    "2692ceddfd26f894a1dfed36da7009ab2806d69de7f3ec551b128f05e9d43ca9",
	"misragries/density-14(n=110,c=0.55)":   "99d7f6d2d6c2e2d6269c111d9ef9423a0925ec12310f23b733de00b39ea05fc8",
	"misragries/density-15(n=150,c=0.15)":   "cb527f523e1fe8a89c349b905fa90dd51e6f1acc5bbf34ed7f105a234a1a8ad2",
	"misragries/density-16(n=190,c=0.25)":   "dfc5b8a398e7fe88b47fb8c980443e4051b9a4cf014c0f8a710f7bfb0ef87771",
	"misragries/density-17(n=230,c=0.35)":   "317be84da3411fbab94f59df8b639d3e24ac08849e350076d870b511c073d86d",
	"misragries/density-18(n=30,c=0.45)":    "8c251de52fb04501c139dfe3bbe08e64f25165510e2c48e32c791782133d64ce",
	"misragries/density-19(n=70,c=0.55)":    "187334f5b07d2b19460d08d8bf7657a6e65463447a34773303633ffc4b0d2cc2",
	"misragries/density-2(n=110,c=0.35)":    "d7b26fc76c2960edf20bdbc1a27ec2d6aa2a0d4bca4d2be10cd4b4cc71030a8f",
	"misragries/density-20(n=110,c=0.15)":   "576cc0abfb2d9109ce61bdd614f060dea34b2d4b2102f101694ca879d2765623",
	"misragries/density-21(n=150,c=0.25)":   "e81e22f44004cb56dc1acba33e2583f9c2587f2a945c72b195e05e09a0cf832a",
	"misragries/density-22(n=190,c=0.35)":   "f3271e0d7d9e9c43ab0399c225a8ef6c1ccf1d970532e607400d0f7eda85ecb9",
	"misragries/density-23(n=230,c=0.45)":   "3418295484b90f8fdae2e0a26e032ed20009f6f3df88f4da1b0aa2a8a272fc4b",
	"misragries/density-24(n=30,c=0.55)":    "f3d30134582123f721d660af8d37f011184eee8493f5729aba2874af11317aef",
	"misragries/density-25(n=70,c=0.15)":    "c36b2b901ed850b57b90854fff5e393dde997bcb3fb03bc8c9b5989e4e159e2f",
	"misragries/density-26(n=110,c=0.25)":   "5dd0d07583a04f79f72cb3969d0e4ddc3df64a3514c9f48d848cbcea251624c3",
	"misragries/density-27(n=150,c=0.35)":   "bbabd1a91aa1aa6fec66ca94a3104031d58ed88ae1f3ac6265955c3aee829816",
	"misragries/density-28(n=190,c=0.45)":   "b037d9380cdc3bf8306577b9a8bbcfd5b254463004efbf7653d078644ae6bdc9",
	"misragries/density-29(n=230,c=0.55)":   "e2605ebdeb8320fbaf3c148b1e45a05fd53929e9e90ea36b269dda0ea0e7cbe3",
	"misragries/density-3(n=150,c=0.45)":    "39353152d584115d392caf4fb622f1b6e6e84a38d87b275c0cd24de1fcc249db",
	"misragries/density-30(n=30,c=0.15)":    "dd2782e60abe192a8f995fc78e0443474423353227626f79e5faebd569032afd",
	"misragries/density-31(n=70,c=0.25)":    "a494f4c8b4d949555fe18553f42a01783f58bbca740c99b4d63691b0c7c10e77",
	"misragries/density-32(n=110,c=0.35)":   "df48407b348e9d5ed3ba39b46f93e24006357d5ee5021bb7bfe9bf5294138092",
	"misragries/density-33(n=150,c=0.45)":   "fd62ca2d09a11430be9bda3fca50349a53a9aa80dc2d703c64348e783628eb17",
	"misragries/density-34(n=190,c=0.55)":   "f90a185da9e75011902157305954e18f98ce4e87ce56b05fcdd1ab0ac874decd",
	"misragries/density-35(n=230,c=0.15)":   "01da1b9ce648eb92d4cec9d0a9e2762d63c622868dcb13422977a78aa2421881",
	"misragries/density-4(n=190,c=0.55)":    "7cd32edd81c69b77b3cc2d06a524cc310c93bde13d1b135ef853fba57f2ae449",
	"misragries/density-5(n=230,c=0.15)":    "2e97b9465f584a04726e0f65f9a5536a72b8757154c8aa94dee67bddfae3ca7d",
	"misragries/density-6(n=30,c=0.25)":     "9c8343c9a3d94a9fd87fa180c3a06e8aeec59bf891b981bf297746203ece481d",
	"misragries/density-7(n=70,c=0.35)":     "989e246fedfcd5eb40a378d25b1667fe4cb08b7401e92c952f1c092a399c17ac",
	"misragries/density-8(n=110,c=0.45)":    "fda27db2a2d7fe8813a9277b526f19a8f9eab2e69860adb42db96d94051c0572",
	"misragries/density-9(n=150,c=0.55)":    "906aad1a52811537ac0f6518a34df9fce620455562686cfb2c8e73fdce26a9ff",
	"misragries/grid":                       "55ee6030f0b82d3408c132ebd958e04f4214b6a502d7830f1d97349f0a367e9b",
	"misragries/near-clique":                "09004bede0f7730f31b415b0c3aee847b19b7debbb4bc3f7d32af8f84cb93c69",
	"misragries/pa":                         "de0bd55f190056ded3c3276d86e5393f96fdc90daab3e94ff5c8e78318b028c5",
	"misragries/skewed":                     "b0d79ae1b63f48b004ecbdf3b1240632c71d7a27a725db0002a72d7df8235bbe",
	"misragries/star":                       "524cc7cba863849380fb3e411dee919d1e0511501b5f2fbb837faaec1ab7b8ed",
	"misragriesof/density-0(n=40)/trial=0":  "f226c232e717059dde66950c3f1f9b299558d19fcb8d5298ef495bf7cdd219b3",
	"misragriesof/density-0(n=40)/trial=1":  "8640baad2e4eab3a1234378dfd9a5aaf1bd35773d7b0fd78ed441b7949fd032e",
	"misragriesof/density-0(n=40)/trial=2":  "cefbd8491633409fc668ac541248378e2e89637ee3841c2ff9410a7bf1e85076",
	"misragriesof/density-0(n=40)/trial=3":  "b5e9cb5a5e8cbf9104fe1c351e0e595285fb5b21797d93640bcdb9374cc89736",
	"misragriesof/density-1(n=70)/trial=0":  "de7aee696778bf6c1c5e5caaee643ebf70d4da6456cc641e5cad9e8ef9edf160",
	"misragriesof/density-1(n=70)/trial=1":  "2c6c197735dbae05bdc506519333fec6e5f42a76eba23c796c8bc4ee90cfc101",
	"misragriesof/density-1(n=70)/trial=2":  "373472096f409be857f62eb2276e488945f4887de9f1f65ad77885c014e7475d",
	"misragriesof/density-1(n=70)/trial=3":  "8af9c9a672baaff25bef26c874085771b52f5005efcc9a9efe019edf28551302",
	"misragriesof/density-2(n=100)/trial=0": "2929e1bb4ed5a60311579cd8595cc4a25c6e1711a1408063d46c43464f043125",
	"misragriesof/density-2(n=100)/trial=1": "82d8e8c2de963979783364b0696cfd87d7f333f312d4cce4b1c6a63ef2cbcb5e",
	"misragriesof/density-2(n=100)/trial=2": "c61ff037fefa45a6a0a104b48ce8580413e038737576626ce42e9a3ae9954943",
	"misragriesof/density-2(n=100)/trial=3": "1e8651f104577ac9893b7042b2785c62d66e92913f5711e7f3e7c13264c2005d",
	"misragriesof/density-3(n=130)/trial=0": "34c22bb023bdb65c26bc91ff2eaade79141821a81c33755f02fb5311533596f5",
	"misragriesof/density-3(n=130)/trial=1": "ee8afd44db2c029689cdc3a34273197a4d7adf9682b320fe1d8d8cedf30d34d7",
	"misragriesof/density-3(n=130)/trial=2": "5e12c9f5358f8e68f7dab7db550edf255fb04e149b21d945dc938dcaf53aabe9",
	"misragriesof/density-3(n=130)/trial=3": "598f95168eb0d0af8b3a83d7a4d3b6243cab1254380881ba40aee98958f1655e",
	"misragriesof/hub/trial=0":              "93dcd3705dc9065f6b6ead8daade784866141dfb30c446371d7aae06c8c848b9",
	"misragriesof/hub/trial=1":              "fc15bf74771a8c80761fe0a5ba13544b1e944e7d0891fb9005e6ec6e36194e37",
	"misragriesof/hub/trial=2":              "cf80f248dc04166ff8f93a95434f943180dc55ff815455ea560f2533ad672bea",
	"misragriesof/hub/trial=3":              "ead148987357fc3aca729f59773a992dd7b4f9b3d94316de4f1f71469fdf93c7",
}

// colouringDigest hashes col's %v text.
func colouringDigest(col []int) string {
	sum := sha256.Sum256([]byte(fmt.Sprint(col)))
	return hex.EncodeToString(sum[:])
}

// TestPinnedResults pins two families, each pinned from MisraGries' body
// before its allocation-free rewrite (closures over a (vertex, colour)
// index, a map per fan, fresh slices per path and rotation), whose
// colourings were proper:
//
//   - misragries: MisraGries on every misraGriesGraphs graph;
//   - misragriesof: MisraGriesOf on every misraGriesOfCells id list, the
//     colours in list order, pinned from the body run on a copy on the
//     graph's vertices that holds the listed edges.
func TestPinnedResults(t *testing.T) {
	got := map[string][]int{}
	for name, g := range misraGriesGraphs() {
		got["misragries/"+name] = MisraGries(g)
	}
	for _, c := range misraGriesOfCells() {
		colour := make([]int, c.g.M())
		MisraGriesOf(c.g, c.ids, colour)
		listed := make([]int, len(c.ids))
		for k, id := range c.ids {
			listed[k] = colour[id]
		}
		got["misragriesof/"+c.name] = listed
	}
	if len(got) != len(pins) {
		t.Fatalf("%d rows for %d pins", len(got), len(pins))
	}
	for key, col := range got {
		if d := colouringDigest(col); d != pins[key] {
			t.Errorf("%s: digest %s, pinned %s", key, d, pins[key])
		}
	}
}

// misraGriesGraphs are the misragries rows' graphs: a star, a hub whose
// (vertex, colour) index takes the sparse layout, a grid, a power-law graph,
// a dense near-clique and 36 random graphs across sizes and densities.
func misraGriesGraphs() map[string]*graph.Graph {
	cases := map[string]*graph.Graph{
		"star":   graph.Star(40),
		"skewed": skewedHub(),
		"grid":   graph.Grid(7, 9),
		"pa":     graph.PreferentialAttachment(120, 4, rng.New(40)),
	}
	// A dense near-clique: K_40 minus a perfect matching's worth of edges.
	near := graph.New(40)
	for u := 0; u < near.N; u++ {
		for v := u + 1; v < near.N; v++ {
			if u/2 != v/2 {
				near.AddEdge(u, v, 1)
			}
		}
	}
	cases["near-clique"] = near
	r := rng.New(41)
	for i := 0; i < 36; i++ {
		n := 30 + 40*(i%6)
		c := 0.15 + 0.1*float64(i%5)
		cases[fmt.Sprintf("density-%d(n=%d,c=%.2f)", i, n, c)] = graph.Density(n, c, r.Split())
	}
	return cases
}

// misraGriesOfCell is one id list of a graph: one random group of its edges,
// listed as colourGroups collects them (machine by machine, each machine's
// edges as its stride, so not ascending) or shuffled.
type misraGriesOfCell struct {
	name string // graph/trial=k
	g    *graph.Graph
	ids  []int
}

// misraGriesOfCells lists four id lists of each of five graphs: a hub whose
// groups take the sparse (vertex, colour) index and four dense graphs whose
// groups take the flat one.
func misraGriesOfCells() []misraGriesOfCell {
	r := rng.New(47)
	// skewedHub's shape at 150 vertices: every group still takes the sparse
	// index, at a tenth of the cost under the race detector.
	hub := graph.Star(150)
	for v := 1; v+1 < hub.N; v += 2 {
		hub.AddEdge(v, v+1, 1)
	}
	graphs := []*graph.Graph{hub}
	for i := 0; i < 4; i++ {
		graphs = append(graphs, graph.Density(40+30*i, 0.4, r.Split()))
	}
	var cells []misraGriesOfCell
	for i, g := range graphs {
		name := fmt.Sprintf("density-%d(n=%d)", i-1, g.N)
		if i == 0 {
			name = "hub"
		}
		for trial := 0; trial < 4; trial++ {
			kappa, machines := 2-trial%2, 2+r.Intn(6)
			group := make([]int, g.M())
			for id := range group {
				group[id] = r.Intn(kappa)
			}
			var ids []int
			for machine := 1; machine < machines; machine++ {
				for id := machine - 1; id < g.M(); id += machines - 1 {
					if group[id] == 0 {
						ids = append(ids, id)
					}
				}
			}
			if trial >= 2 {
				r.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
			}
			cells = append(cells, misraGriesOfCell{fmt.Sprintf("%s/trial=%d", name, trial), g, ids})
		}
	}
	return cells
}
